//! A small LDAP-like directory: DN-addressed entries, multi-valued
//! attributes, and RFC 4515-flavoured search filters, built as a tree.
//!
//! Only the slice of LDAP semantics the MFA infrastructure exercises is
//! implemented: exact-match, presence, prefix/suffix substring filters, and
//! boolean composition. Attribute names compare case-insensitively, values
//! case-sensitively (like `caseExactMatch` syntaxes; token pairing labels
//! are lower case by convention).
//!
//! Every login asks the one question "which entry has this `uid`?"
//! (`pam_unix`, the token module's pairing lookup, the portal), so the
//! directory keeps an equality index on `uid` and answers a filter that
//! pins one from it; any other filter scans. Entries are stored once,
//! behind an [`Arc`], and a search hands out those shared entries.

use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The one indexed attribute.
const UID: &str = "uid";

/// A directory entry: a DN plus multi-valued attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Distinguished name, e.g. `uid=alice,ou=people,dc=tacc`.
    pub dn: String,
    /// `(lower-cased name, values)`, sorted by name. An entry has a
    /// handful of attributes: a sorted vector holds them in less memory
    /// than the one node of a map, which is what pays for the index.
    attrs: Vec<(String, Vec<String>)>,
}

impl Entry {
    /// Create an entry with no attributes.
    pub fn new(dn: impl Into<String>) -> Self {
        Entry {
            dn: dn.into(),
            attrs: Vec::new(),
        }
    }

    /// Where `name` is (`Ok`) or belongs (`Err`) among the attributes.
    /// Compares case-insensitively without building a lower-cased copy.
    fn slot(&self, name: &str) -> Result<usize, usize> {
        self.attrs.binary_search_by(|(stored, _)| {
            stored
                .bytes()
                .cmp(name.bytes().map(|b| b.to_ascii_lowercase()))
        })
    }

    /// The values of `name`, created empty if the attribute is absent.
    fn values_mut(&mut self, name: &str) -> &mut Vec<String> {
        let at = self.slot(name).unwrap_or_else(|at| {
            self.attrs
                .insert(at, (name.to_ascii_lowercase(), Vec::new()));
            at
        });
        &mut self.attrs[at].1
    }

    /// Builder-style attribute addition.
    pub fn with_attr(mut self, name: &str, value: &str) -> Self {
        self.add_attr(name, value);
        self
    }

    /// Add one value to an attribute.
    pub fn add_attr(&mut self, name: &str, value: &str) {
        self.values_mut(name).push(value.to_string());
    }

    /// Replace all values of an attribute.
    pub fn set_attr(&mut self, name: &str, values: Vec<String>) {
        *self.values_mut(name) = values;
    }

    /// Remove an attribute entirely. Returns whether it existed.
    pub fn remove_attr(&mut self, name: &str) -> bool {
        self.slot(name).map(|i| self.attrs.remove(i)).is_ok()
    }

    /// All values of `name`, empty if absent.
    pub(crate) fn get(&self, name: &str) -> &[String] {
        self.slot(name).map_or(&[], |i| &self.attrs[i].1)
    }

    /// First value of `name`, if any.
    pub fn get_one(&self, name: &str) -> Option<&str> {
        self.get(name).first().map(String::as_str)
    }

    /// Whether the attribute exists with at least one value.
    pub(crate) fn has_attr(&self, name: &str) -> bool {
        !self.get(name).is_empty()
    }
}

/// An LDAP search filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Filter {
    /// `(attr=value)`
    Eq(String, String),
    /// `(attr=*)`
    Present(String),
    /// `(attr=prefix*)`
    Prefix(String, String),
    /// `(attr=*suffix)`
    Suffix(String, String),
    /// `(&(f1)(f2)...)`
    And(Vec<Filter>),
    /// `(|(f1)(f2)...)`
    Or(Vec<Filter>),
    /// `(!(f))`
    Not(Box<Filter>),
}

impl Filter {
    /// Convenience equality filter.
    pub fn eq(attr: &str, value: &str) -> Self {
        Filter::Eq(attr.to_string(), value.to_string())
    }

    /// Evaluate the filter against an entry.
    pub fn matches(&self, entry: &Entry) -> bool {
        match self {
            Filter::Eq(a, v) => entry.get(a).iter().any(|x| x == v),
            Filter::Present(a) => entry.has_attr(a),
            Filter::Prefix(a, p) => entry.get(a).iter().any(|x| x.starts_with(p)),
            Filter::Suffix(a, sfx) => entry.get(a).iter().any(|x| x.ends_with(sfx)),
            Filter::And(fs) => fs.iter().all(|f| f.matches(entry)),
            Filter::Or(fs) => fs.iter().any(|f| f.matches(entry)),
            Filter::Not(f) => !f.matches(entry),
        }
    }

    /// The `uid` value every match of this filter must carry, if it names
    /// one: `(uid=v)` itself, or a conjunction with such a term.
    fn pinned_uid(&self) -> Option<&str> {
        match self {
            Filter::Eq(a, v) if a.eq_ignore_ascii_case(UID) => Some(v),
            Filter::And(fs) => fs.iter().find_map(Filter::pinned_uid),
            _ => None,
        }
    }
}

/// Whether `dn` is `base` or lies below it. A base ends on a component
/// boundary: `ou=people,dc=tacc` holds neither `uid=x,xou=people,dc=tacc`
/// nor anything a bare `people,dc=tacc` would have matched. The empty
/// base is the root and holds everything.
fn dn_under(dn: &str, base: &str) -> bool {
    base.is_empty()
        || dn
            .strip_suffix(base)
            .is_some_and(|above| above.is_empty() || above.ends_with(','))
}

/// Directory operation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirectoryError {
    /// Add of a DN that already exists.
    AlreadyExists(String),
    /// Operation on a DN that does not exist.
    NoSuchEntry(String),
}

impl std::fmt::Display for DirectoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DirectoryError::AlreadyExists(dn) => write!(f, "entry already exists: {dn}"),
            DirectoryError::NoSuchEntry(dn) => write!(f, "no such entry: {dn}"),
        }
    }
}

impl std::error::Error for DirectoryError {}

/// The entries and the `uid` index over them; [`Store::insert`] and
/// [`Store::remove`] are the only writers, so the two cannot disagree.
#[derive(Default)]
struct Store {
    /// Every entry, once, in DN order.
    by_dn: BTreeMap<String, Arc<Entry>>,
    /// `uid` value → the entries carrying it, each list in DN order.
    by_uid: HashMap<String, Vec<Arc<Entry>>>,
}

impl Store {
    fn insert(&mut self, entry: Entry) {
        let entry = Arc::new(entry);
        for uid in entry.get(UID) {
            let sharing = self.by_uid.entry(uid.clone()).or_default();
            // `Ok` is this entry again: it lists the value twice.
            if let Err(at) = sharing.binary_search_by(|e| e.dn.cmp(&entry.dn)) {
                sharing.insert(at, Arc::clone(&entry));
            }
        }
        self.by_dn.insert(entry.dn.clone(), entry);
    }

    fn remove(&mut self, dn: &str) -> Option<Arc<Entry>> {
        let entry = self.by_dn.remove(dn)?;
        for uid in entry.get(UID) {
            if let Some(sharing) = self.by_uid.get_mut(uid) {
                sharing.retain(|e| e.dn != dn);
                if sharing.is_empty() {
                    self.by_uid.remove(uid);
                }
            }
        }
        Some(entry)
    }
}

/// A thread-safe directory instance, cheap to clone (shared state).
#[derive(Clone, Default)]
pub struct Directory {
    inner: Arc<RwLock<Store>>,
}

impl Directory {
    /// Create an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a new entry. Fails if the DN exists.
    pub fn add(&self, entry: Entry) -> Result<(), DirectoryError> {
        let mut store = self.inner.write();
        if store.by_dn.contains_key(&entry.dn) {
            return Err(DirectoryError::AlreadyExists(entry.dn));
        }
        store.insert(entry);
        Ok(())
    }

    /// Fetch a copy of the entry at exactly `dn`.
    pub fn get(&self, dn: &str) -> Option<Entry> {
        self.inner.read().by_dn.get(dn).map(|e| Entry::clone(e))
    }

    /// Delete an entry by DN.
    pub fn delete(&self, dn: &str) -> Result<(), DirectoryError> {
        self.inner
            .write()
            .remove(dn)
            .map(|_| ())
            .ok_or_else(|| DirectoryError::NoSuchEntry(dn.to_string()))
    }

    /// Apply `f` to a copy of the entry at `dn` under the write lock, then
    /// store the copy in the entry's place. `f` may change anything,
    /// `uid` and `dn` included: the entry is filed under what it says
    /// afterwards. If it names a DN another entry holds, nothing changes.
    pub fn modify(&self, dn: &str, f: impl FnOnce(&mut Entry)) -> Result<(), DirectoryError> {
        let mut store = self.inner.write();
        let mut entry = store
            .by_dn
            .get(dn)
            .map(|e| Entry::clone(e))
            .ok_or_else(|| DirectoryError::NoSuchEntry(dn.to_string()))?;
        f(&mut entry);
        if entry.dn != dn && store.by_dn.contains_key(&entry.dn) {
            return Err(DirectoryError::AlreadyExists(entry.dn));
        }
        store.remove(dn);
        store.insert(entry);
        Ok(())
    }

    /// The entries at or below `base` that `filter` matches, in DN order.
    /// They are the directory's own, shared: a later `modify` replaces an
    /// entry and leaves the one handed out here as it was.
    pub fn search(&self, base: &str, filter: &Filter) -> Vec<Arc<Entry>> {
        let store = self.inner.read();
        let hit = |e: &&Arc<Entry>| dn_under(&e.dn, base) && filter.matches(e);
        match filter.pinned_uid() {
            Some(uid) => store
                .by_uid
                .get(uid)
                .into_iter()
                .flatten()
                .filter(hit)
                .cloned()
                .collect(),
            None => store.by_dn.values().filter(hit).cloned().collect(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.inner.read().by_dn.len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.read().by_dn.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn people_dir() -> Directory {
        let dir = Directory::new();
        for (uid, pairing) in [
            ("alice", Some("soft")),
            ("bob", Some("sms")),
            ("carol", None),
            ("gateway1", None),
        ] {
            let mut e = Entry::new(format!("uid={uid},ou=people,dc=tacc"))
                .with_attr("uid", uid)
                .with_attr("objectClass", "posixAccount");
            if let Some(p) = pairing {
                e.add_attr("mfaPairing", p);
            }
            dir.add(e).unwrap();
        }
        dir
    }

    #[test]
    fn add_get_delete() {
        let dir = Directory::new();
        let e = Entry::new("uid=x,dc=tacc").with_attr("uid", "x");
        dir.add(e.clone()).unwrap();
        assert_eq!(dir.get("uid=x,dc=tacc"), Some(e.clone()));
        assert_eq!(
            dir.add(e),
            Err(DirectoryError::AlreadyExists("uid=x,dc=tacc".into()))
        );
        dir.delete("uid=x,dc=tacc").unwrap();
        assert_eq!(dir.get("uid=x,dc=tacc"), None);
        assert_eq!(
            dir.delete("uid=x,dc=tacc"),
            Err(DirectoryError::NoSuchEntry("uid=x,dc=tacc".into()))
        );
    }

    #[test]
    fn attribute_names_case_insensitive() {
        let e = Entry::new("dn").with_attr("MfaPairing", "soft");
        assert_eq!(e.get_one("mfapairing"), Some("soft"));
        assert_eq!(e.get_one("MFAPAIRING"), Some("soft"));
    }

    #[test]
    fn values_case_sensitive() {
        let e = Entry::new("dn").with_attr("uid", "Alice");
        assert!(!Filter::eq("uid", "alice").matches(&e));
        assert!(Filter::eq("uid", "Alice").matches(&e));
    }

    #[test]
    fn search_with_eq_filter() {
        let dir = people_dir();
        let hits = dir.search("ou=people,dc=tacc", &Filter::eq("uid", "alice"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].get_one("mfaPairing"), Some("soft"));
    }

    #[test]
    fn search_with_presence_filter_finds_paired_users() {
        let dir = people_dir();
        let hits = dir.search("dc=tacc", &Filter::Present("mfaPairing".into()));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn composite_filter_matches_unpaired_accounts() {
        let dir = people_dir();
        let f = Filter::And(vec![
            Filter::eq("objectClass", "posixAccount"),
            Filter::Not(Box::new(Filter::Present("mfaPairing".into()))),
        ]);
        let hits = dir.search("dc=tacc", &f);
        let uids: Vec<_> = hits.iter().filter_map(|e| e.get_one("uid")).collect();
        assert_eq!(uids.len(), 2);
        assert!(uids.contains(&"carol") && uids.contains(&"gateway1"));
    }

    #[test]
    fn or_of_prefix_and_suffix_filters() {
        let f = Filter::Or(vec![
            Filter::Prefix("uid".into(), "gate".into()),
            Filter::Suffix("uid".into(), "ice".into()),
        ]);
        let dir = people_dir();
        assert_eq!(dir.search("dc=tacc", &f).len(), 2);
    }

    #[test]
    fn modify_updates_pairing() {
        let dir = people_dir();
        dir.modify("uid=carol,ou=people,dc=tacc", |e| {
            e.set_attr("mfaPairing", vec!["hard".into()]);
        })
        .unwrap();
        let e = dir.get("uid=carol,ou=people,dc=tacc").unwrap();
        assert_eq!(e.get_one("mfaPairing"), Some("hard"));
        assert!(dir.modify("uid=nobody,dc=tacc", |_| {}).is_err());
    }

    #[test]
    fn multi_valued_attributes() {
        let mut e = Entry::new("dn");
        e.add_attr("mail", "a@x.org");
        e.add_attr("mail", "b@x.org");
        assert_eq!(e.get("mail").len(), 2);
        assert_eq!(e.get_one("mail"), Some("a@x.org"));
        assert!(e.remove_attr("mail"));
        assert!(!e.remove_attr("mail"));
    }

    #[test]
    fn base_scoping() {
        let dir = people_dir();
        dir.add(Entry::new("uid=svc,ou=services,dc=tacc").with_attr("uid", "svc"))
            .unwrap();
        assert_eq!(
            dir.search("ou=people,dc=tacc", &Filter::Present("uid".into()))
                .len(),
            4
        );
        assert_eq!(
            dir.search("dc=tacc", &Filter::Present("uid".into())).len(),
            5
        );
    }

    #[test]
    fn base_ends_on_a_component_boundary() {
        let dir = people_dir();
        dir.add(Entry::new("uid=x,xou=people,dc=tacc").with_attr("uid", "x"))
            .unwrap();
        let any = Filter::Present("uid".into());
        // `xou=people` is not `ou=people`, on the scan and on the index.
        assert_eq!(dir.search("ou=people,dc=tacc", &any).len(), 4);
        assert!(dir
            .search("ou=people,dc=tacc", &Filter::eq("uid", "x"))
            .is_empty());
        // Half a component is no base at all.
        assert!(dir.search("people,dc=tacc", &any).is_empty());
        assert!(dir
            .search("people,dc=tacc", &Filter::eq("uid", "alice"))
            .is_empty());
        // An entry is under its own DN, and everything is under the root.
        assert_eq!(dir.search("uid=alice,ou=people,dc=tacc", &any).len(), 1);
        assert_eq!(dir.search("", &any).len(), 5);
    }

    #[test]
    fn modify_refiles_a_renamed_uid() {
        let dir = people_dir();
        dir.modify("uid=carol,ou=people,dc=tacc", |e| {
            e.set_attr("uid", vec!["caroline".into()]);
        })
        .unwrap();
        assert!(dir
            .search("dc=tacc", &Filter::eq("uid", "carol"))
            .is_empty());
        let hits = dir.search("dc=tacc", &Filter::eq("uid", "caroline"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].dn, "uid=carol,ou=people,dc=tacc");
    }

    #[test]
    fn modify_rekeys_a_changed_dn() {
        let dir = people_dir();
        let (old, new) = ("uid=carol,ou=people,dc=tacc", "uid=carol,ou=staff,dc=tacc");
        dir.modify(old, |e| e.dn = new.into()).unwrap();
        assert_eq!(dir.get(old), None);
        assert_eq!(dir.get(new).unwrap().get_one("uid"), Some("carol"));
        assert_eq!(dir.len(), 4);
        let hits = dir.search("ou=staff,dc=tacc", &Filter::eq("uid", "carol"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].dn, new);

        // A DN another entry holds is refused, and nothing is changed.
        let taken = "uid=alice,ou=people,dc=tacc";
        let before = dir.get(new);
        assert_eq!(
            dir.modify(new, |e| {
                e.dn = taken.into();
                e.set_attr("uid", vec!["mallory".into()]);
            }),
            Err(DirectoryError::AlreadyExists(taken.into()))
        );
        assert_eq!(dir.get(new), before);
        assert_eq!(dir.get(taken).unwrap().get_one("mfaPairing"), Some("soft"));
        assert!(dir
            .search("dc=tacc", &Filter::eq("uid", "mallory"))
            .is_empty());
    }

    #[test]
    fn uid_search_keeps_dn_order_and_the_rest_of_the_filter() {
        let dir = people_dir();
        // The same uid in two subtrees, added out of DN order, one of
        // them listing the value twice.
        dir.add(
            Entry::new("uid=alice,ou=services,dc=tacc")
                .with_attr("UID", "alice")
                .with_attr("uid", "alice"),
        )
        .unwrap();
        dir.add(Entry::new("cn=alias,dc=tacc").with_attr("uid", "alice"))
            .unwrap();
        let dns = |f: &Filter| -> Vec<String> {
            dir.search("dc=tacc", f)
                .iter()
                .map(|e| e.dn.clone())
                .collect()
        };
        assert_eq!(
            dns(&Filter::eq("uId", "alice")),
            [
                "cn=alias,dc=tacc",
                "uid=alice,ou=people,dc=tacc",
                "uid=alice,ou=services,dc=tacc"
            ]
        );
        let paired = Filter::And(vec![
            Filter::Present("mfaPairing".into()),
            Filter::eq("uid", "alice"),
        ]);
        assert_eq!(dns(&paired), ["uid=alice,ou=people,dc=tacc"]);
        dir.delete("uid=alice,ou=people,dc=tacc").unwrap();
        assert!(dns(&paired).is_empty());
        assert_eq!(dns(&Filter::eq("uid", "alice")).len(), 2);
    }

    #[test]
    fn concurrent_reads_and_writes() {
        let dir = people_dir();
        let mut handles = Vec::new();
        for t in 0..8 {
            let d = dir.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let dn = format!("uid=u{t}-{i},ou=people,dc=tacc");
                    d.add(Entry::new(dn).with_attr("uid", &format!("u{t}-{i}")))
                        .unwrap();
                    let _ = d.search("dc=tacc", &Filter::Present("uid".into()));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(dir.len(), 4 + 8 * 50);
    }
}
