//! Authoritative DNS name-server engine.
//!
//! An [`AuthServer`] owns a set of [`Zone`]s and answers queries the way a
//! production authoritative server does:
//!
//! * **authoritative answers** for names inside a served zone, with the
//!   zone's own NS set and glue attached in the authority/additional
//!   sections — the copies that the paper's *TTL refresh* scheme feeds on,
//! * **downward referrals** at delegation cuts, carrying the child's
//!   infrastructure records,
//! * **NXDOMAIN / NODATA** with the apex SOA for negative caching,
//! * in-zone **CNAME chasing**.
//!
//! # Example
//!
//! ```rust
//! use dns_auth::AuthServer;
//! use dns_core::{Message, Name, Question, RecordType, ResponseKind, Ttl, ZoneBuilder};
//! use std::net::Ipv4Addr;
//!
//! # fn main() -> Result<(), dns_core::DnsError> {
//! let zone = ZoneBuilder::new("ucla.edu".parse()?)
//!     .ns("ns1.ucla.edu".parse()?, Ipv4Addr::new(192, 0, 2, 1), Ttl::from_days(1))
//!     .a("www.ucla.edu".parse()?, Ipv4Addr::new(192, 0, 2, 80), Ttl::from_hours(4))
//!     .build()?;
//! let mut server = AuthServer::new("ns1.ucla.edu".parse()?, Ipv4Addr::new(192, 0, 2, 1));
//! server.add_zone(zone);
//!
//! let q = Message::query(1, Question::new("www.ucla.edu".parse()?, RecordType::A));
//! let resp = server.handle_query(&q);
//! assert_eq!(resp.kind(), ResponseKind::Answer);
//! assert!(resp.header.authoritative);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod server;
mod store;

pub use server::{respond, AuthServer};
pub use store::{ZoneLookup, ZoneStore};

pub use dns_core::Zone;
