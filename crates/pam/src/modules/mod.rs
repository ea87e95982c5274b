//! The PAM modules of Figure 1: the four in-house modules plus the stock
//! first-factor password module they compose with.

pub mod exemption;
pub mod password;
pub mod pubkey;
pub mod solaris;
pub mod token;
