//! RADIUS: Remote Authentication Dial-In User Service (after RFC 2865/2869).
//!
//! "The Remote Authentication Dial-In User Service (RADIUS) and HTTPS
//! networking protocols connect the back end core infrastructure ... to
//! provide access control responses to vetted login nodes" (§1). The paper
//! runs FreeRADIUS; this crate implements the protocol slice that
//! deployment exercises:
//!
//! * the binary wire format — code, identifier, length, authenticator,
//!   attribute TLVs ([`packet`], [`attribute`]);
//! * request/response authenticators and `User-Password` hiding
//!   ([`auth`]);
//! * challenge–response ("the token code is sent using challenge-response
//!   functionality of the RADIUS protocol", §3.2) via the `State`
//!   attribute;
//! * a client that walks servers "in a round-robin fashion to provide load
//!   balancing and resiliency if specific RADIUS servers are unavailable"
//!   (§3.4) ([`client`]), with per-server circuit breakers ([`breaker`])
//!   and a deadline-budgeted retry policy in place of unbounded walks;
//! * a server shell dispatching to pluggable handlers ([`server`]) and a
//!   proxy handler for the "proxy chaining across servers" deployment
//!   pattern (§3.2) ([`proxy`]);
//! * transports: deterministic in-memory (with fault injection, used by the
//!   rollout simulator) and real UDP ([`transport`]);
//! * a wire-rate batched UDP front end — event-loop socket draining,
//!   zero-copy [`packet::PacketView`] decode, bounded worker pool, lane
//!   fairness ([`ingest`], DESIGN.md §16).

#![forbid(unsafe_code)]

pub mod attribute;
pub mod auth;
pub mod breaker;
pub mod client;
pub mod ingest;
pub mod packet;
pub mod proxy;
pub mod realm;
pub mod server;
pub mod tracewire;
pub mod transport;

pub use attribute::{Attribute, AttributeType};
pub use breaker::BreakerConfig;
pub use client::{ClientConfig, RadiusClient};
pub use ingest::{BatchedUdpServer, IngestHandle, IngestStats};
pub use packet::Code;
pub use server::{Handler, RadiusServer, ServerDecision};
pub use transport::{FaultPlan, InMemoryTransport, Transport, TransportError};

/// Maximum RADIUS packet length (RFC 2865 §3).
const MAX_PACKET_LEN: usize = 4096;

/// Minimum RADIUS packet length: the 20-byte header.
const MIN_PACKET_LEN: usize = 20;
