//! The `uid` index against the plain scan it replaced.
//!
//! A random directory lives through interleaved adds, deletes and
//! modifications (of `uid`, of the DN, of other attributes) next to a
//! model that is nothing but a DN-ordered map. After every step every
//! query — random bases, all seven [`Filter`] variants, mixed-case
//! attribute names, the same `uid` in several subtrees and several times
//! in one entry — must return from [`Directory::search`] exactly what a
//! scan of the model returns: the same entries in the same order.

use hpcmfa_directory::ldap::{Directory, DirectoryError, Entry, Filter};
use proptest::prelude::*;
use std::collections::BTreeMap;

const NAMES: [&str; 5] = ["alice", "bob", "al", "Alice", "carol"];
const SUBTREES: [&str; 4] = [
    "ou=people,dc=tacc",
    "ou=services,dc=tacc",
    "xou=people,dc=tacc",
    "dc=tacc",
];
const UID_SPELLINGS: [&str; 3] = ["uid", "UID", "uId"];
const OTHER_ATTRS: [&str; 3] = ["mail", "mfaPairing", "CN"];

fn arb_name() -> impl Strategy<Value = String> {
    prop::sample::select(NAMES.to_vec()).prop_map(str::to_string)
}

fn arb_attr() -> impl Strategy<Value = String> {
    prop_oneof![
        prop::sample::select(UID_SPELLINGS.to_vec()),
        prop::sample::select(OTHER_ATTRS.to_vec()),
    ]
    .prop_map(str::to_string)
}

/// One of 40 DNs, so that steps keep landing on entries that exist.
fn arb_dn() -> impl Strategy<Value = String> {
    (
        prop::sample::select(vec!["uid", "cn"]),
        arb_name(),
        prop::sample::select(SUBTREES.to_vec()),
    )
        .prop_map(|(rdn, name, subtree)| format!("{rdn}={name},{subtree}"))
}

/// A search base: the root, a subtree, half a component, or a whole DN.
fn arb_base() -> impl Strategy<Value = String> {
    prop_oneof![
        prop::sample::select(vec!["", "people,dc=tacc", "c=tacc", "ou=staff,dc=tacc"])
            .prop_map(str::to_string),
        prop::sample::select(SUBTREES.to_vec()).prop_map(str::to_string),
        arb_dn(),
    ]
}

fn arb_filter() -> impl Strategy<Value = Filter> {
    let leaf = prop_oneof![
        (prop::sample::select(UID_SPELLINGS.to_vec()), arb_name())
            .prop_map(|(a, v)| Filter::eq(a, &v)),
        (arb_attr(), arb_name()).prop_map(|(a, v)| Filter::Eq(a, v)),
        arb_attr().prop_map(Filter::Present),
        (
            arb_attr(),
            prop::sample::select(vec!["", "a", "al", "A", "bo"])
        )
            .prop_map(|(a, v)| Filter::Prefix(a, v.to_string())),
        (
            arb_attr(),
            prop::sample::select(vec!["", "e", "ice", "l", "ob"])
        )
            .prop_map(|(a, v)| Filter::Suffix(a, v.to_string())),
    ];
    leaf.prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(Filter::And),
            prop::collection::vec(inner.clone(), 1..4).prop_map(Filter::Or),
            inner.prop_map(|f| Filter::Not(Box::new(f))),
        ]
    })
}

#[derive(Debug, Clone)]
enum Edit {
    Add(String, String),
    Set(String, Vec<String>),
    Remove(String),
    Dn(String),
}

impl Edit {
    fn apply(&self, e: &mut Entry) {
        match self {
            Edit::Add(name, value) => e.add_attr(name, value),
            Edit::Set(name, values) => e.set_attr(name, values.clone()),
            Edit::Remove(name) => {
                e.remove_attr(name);
            }
            Edit::Dn(dn) => e.dn = dn.clone(),
        }
    }
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (arb_attr(), arb_name()).prop_map(|(a, v)| Edit::Add(a, v)),
        (arb_attr(), prop::collection::vec(arb_name(), 0..3)).prop_map(|(a, vs)| Edit::Set(a, vs)),
        arb_attr().prop_map(Edit::Remove),
        arb_dn().prop_map(Edit::Dn),
    ]
}

#[derive(Debug, Clone)]
enum Step {
    Add(String, Vec<Edit>),
    Delete(String),
    Modify(String, Vec<Edit>),
}

fn arb_step() -> impl Strategy<Value = Step> {
    let edits = || prop::collection::vec(arb_edit(), 0..4);
    // Arms are drawn uniformly: two of five add, two modify, one deletes.
    prop_oneof![
        (arb_dn(), edits()).prop_map(|(dn, edits)| Step::Add(dn, edits)),
        (arb_dn(), edits()).prop_map(|(dn, edits)| Step::Add(dn, edits)),
        arb_dn().prop_map(Step::Delete),
        (arb_dn(), edits()).prop_map(|(dn, edits)| Step::Modify(dn, edits)),
        (arb_dn(), edits()).prop_map(|(dn, edits)| Step::Modify(dn, edits)),
    ]
}

fn edited(mut e: Entry, edits: &[Edit]) -> Entry {
    edits.iter().for_each(|edit| edit.apply(&mut e));
    e
}

/// The directory's contract written out on a plain map: the reference
/// for the outcome of every step.
fn step_model(model: &mut BTreeMap<String, Entry>, step: &Step) -> Result<(), DirectoryError> {
    match step {
        Step::Add(dn, edits) => {
            let e = edited(Entry::new(dn.clone()), edits);
            if model.contains_key(&e.dn) {
                return Err(DirectoryError::AlreadyExists(e.dn));
            }
            model.insert(e.dn.clone(), e);
        }
        Step::Delete(dn) => {
            model
                .remove(dn)
                .ok_or_else(|| DirectoryError::NoSuchEntry(dn.clone()))?;
        }
        Step::Modify(dn, edits) => {
            let e = model
                .get(dn)
                .cloned()
                .ok_or_else(|| DirectoryError::NoSuchEntry(dn.clone()))?;
            let e = edited(e, edits);
            if e.dn != *dn && model.contains_key(&e.dn) {
                return Err(DirectoryError::AlreadyExists(e.dn));
            }
            model.remove(dn);
            model.insert(e.dn.clone(), e);
        }
    }
    Ok(())
}

fn step_directory(dir: &Directory, step: &Step) -> Result<(), DirectoryError> {
    match step {
        Step::Add(dn, edits) => dir.add(edited(Entry::new(dn.clone()), edits)),
        Step::Delete(dn) => dir.delete(dn),
        Step::Modify(dn, edits) => dir.modify(dn, |e| edits.iter().for_each(|edit| edit.apply(e))),
    }
}

/// The search the index replaced: every entry, in DN order, tested
/// against the base and the filter.
fn scan(model: &BTreeMap<String, Entry>, base: &str, filter: &Filter) -> Vec<Entry> {
    let under = |dn: &str| base.is_empty() || dn == base || dn.ends_with(&format!(",{base}"));
    model
        .values()
        .filter(|e| under(&e.dn) && filter.matches(e))
        .cloned()
        .collect()
}

proptest! {
    fn search_equals_the_scan_after_every_step(
        steps in prop::collection::vec(arb_step(), 1..40),
        queries in prop::collection::vec((arb_base(), arb_filter()), 1..8),
    ) {
        // Besides the random queries, every uid from the root: the index's
        // own question, where entries sharing a value must come in DN order.
        let mut queries = queries;
        queries.extend(NAMES.iter().map(|name| (String::new(), Filter::eq("uid", name))));
        let dir = Directory::new();
        let mut model = BTreeMap::new();
        for (n, step) in steps.iter().enumerate() {
            prop_assert_eq!(
                step_directory(&dir, step),
                step_model(&mut model, step),
                "step {} {:?}", n, step
            );
            prop_assert_eq!(dir.len(), model.len());
            for (base, filter) in &queries {
                let found: Vec<Entry> = dir
                    .search(base, filter)
                    .iter()
                    .map(|e| Entry::clone(e))
                    .collect();
                prop_assert_eq!(
                    found,
                    scan(&model, base, filter),
                    "after step {} {:?}: base {:?} filter {:?}", n, step, base, filter
                );
            }
        }
    }
}

/// Complexity guard, run by name under `timeout` from `scripts/ci.sh`:
/// 200 000 `(uid=…)` searches over 100 000 entries. One scan of that
/// directory is milliseconds, so scanning for each is minutes; from the
/// index all of them are a fraction of a second. The assertions are the
/// answers, the stopwatch is CI's.
#[test]
fn uid_search_does_not_grow_with_the_directory() {
    const ENTRIES: u32 = 100_000;
    let base = "ou=people,dc=tacc";
    let dir = Directory::new();
    for n in 0..ENTRIES {
        let uid = format!("u{n:06}");
        dir.add(
            Entry::new(format!("uid={uid},{base}"))
                .with_attr("uid", &uid)
                .with_attr("uidNumber", &n.to_string()),
        )
        .unwrap();
    }
    for probe in 0..2 * ENTRIES {
        // A stride coprime to the population visits every entry, twice.
        let n = probe.wrapping_mul(7_919) % ENTRIES;
        let hits = dir.search(base, &Filter::eq("uid", &format!("u{n:06}")));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].get_one("uidNumber"), Some(n.to_string().as_str()));
    }
    assert!(dir.search(base, &Filter::eq("uid", "nobody")).is_empty());
}
