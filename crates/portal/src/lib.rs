//! The user portal (§3.5): self-service MFA device pairing.
//!
//! "Users manage their own MFA device pairings via our web-based user
//! portal. ... This application shepherds communication between the LinOTP
//! back end, the user and their multi-factor device, and the center's
//! identity management back end."
//!
//! * `signedurl` — the out-of-band unpairing email: "the user is sent an
//!   email ... that contains a signed URL."
//! * `session` — the stateful pairing session: "the complete pairing
//!   process occurs without a page refresh. If a user refreshes in the
//!   middle of the process ... the process is aborted"; the same guard
//!   blocks back-button replays and form resubmissions.
//! * [`portal`] — the portlet application itself: soft (QR), SMS, and hard
//!   (serial) pairing flows, unpairing with possession proof, interstitial
//!   splash logic, and notifications to the identity back end.

#![forbid(unsafe_code)]

pub mod portal;
mod session;
mod signedurl;
