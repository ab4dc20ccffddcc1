//! Query processing for an authoritative server.

use crate::ZoneStore;
use dns_core::{Message, Name, Question, RData, Rcode, Record, RecordType, Ttl, Zone};
use std::fmt;
use std::net::Ipv4Addr;

/// Maximum CNAME links chased inside one response.
const MAX_CNAME_CHAIN: usize = 8;

/// An authoritative name-server: an identity (name + address) plus the
/// zones it serves.
///
/// See the crate-level docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct AuthServer {
    name: Name,
    addr: Ipv4Addr,
    zones: ZoneStore,
}

impl AuthServer {
    /// Creates a server with no zones.
    pub fn new(name: Name, addr: Ipv4Addr) -> Self {
        AuthServer {
            name,
            addr,
            zones: ZoneStore::new(),
        }
    }

    /// The server's host name.
    pub fn name(&self) -> &Name {
        &self.name
    }

    /// The server's address.
    pub fn addr(&self) -> Ipv4Addr {
        self.addr
    }

    /// Adds a zone this server is authoritative for. Accepts both owned
    /// zones and shared `Arc<Zone>` handles (see [`ZoneStore::insert`]).
    pub fn add_zone(&mut self, zone: impl Into<std::sync::Arc<Zone>>) {
        self.zones.insert(zone);
    }

    /// The served zones.
    pub fn zones(&self) -> &ZoneStore {
        &self.zones
    }

    /// Mutable access to the served zones (used by the simulator to apply
    /// long-TTL overrides).
    pub fn zones_mut(&mut self) -> &mut ZoneStore {
        &mut self.zones
    }

    /// Answers one query, producing a complete response message.
    ///
    /// The logic mirrors RFC 1034 §4.3.2: find the deepest served zone
    /// enclosing the query name; refuse if none; refer at delegation cuts;
    /// otherwise answer authoritatively (including NXDOMAIN/NODATA with the
    /// SOA, and CNAME chasing within the zone).
    pub fn handle_query(&self, query: &Message) -> Message {
        let mut resp = Message::response_to(query);
        let Some(question) = query.question() else {
            resp.header.rcode = Rcode::FormErr;
            return resp;
        };
        let Some(mut zone) = self.zones.find(&question.name) else {
            resp.header.rcode = Rcode::Refused;
            return resp;
        };

        // Delegation cut between the apex and the query name → referral.
        if let Some(delegation) = zone.delegation_for(&question.name) {
            // DS queries are answered from the *parent* side of the cut
            // (RFC 4035 §2.4): the DS set is authoritative parent data.
            if question.rtype == RecordType::Ds && question.name == delegation.child {
                resp.header.authoritative = true;
                resp.answers.extend(delegation.ds.iter().cloned());
                return resp;
            }
            // If we also serve the child zone, answer from it directly
            // (same-server parent/child, common for TLD operators).
            match self.zones.get(&delegation.child) {
                Some(child) if child.delegation_for(&question.name).is_none() => zone = child,
                _ => {
                    resp.authorities.extend(delegation.ns_records());
                    // Signed delegations carry the DS set alongside the NS
                    // set — the DNSSEC infrastructure records of paper §6.
                    resp.authorities.extend(delegation.ds.iter().cloned());
                    resp.additionals.extend(delegation.glue.iter().cloned());
                    return resp;
                }
            }
        }

        authoritative_answer(zone, question, &mut resp);
        resp
    }
}

/// Fills `resp` with `zone`'s authoritative answer to `question`.
fn authoritative_answer(zone: &Zone, question: &Question, resp: &mut Message) {
    resp.header.authoritative = true;
    let mut qname = &question.name;
    for _ in 0..MAX_CNAME_CHAIN {
        if let Some(set) = zone.lookup(qname, question.rtype) {
            resp.answers.extend(set.records());
            break;
        }
        // Chase an in-zone CNAME when the queried type is not CNAME.
        if question.rtype != RecordType::Cname {
            if let Some(cname) = zone.lookup(qname, RecordType::Cname) {
                resp.answers.extend(cname.records());
                if let Some(RData::Cname(target)) = cname.rdatas().first() {
                    if target.is_subdomain_of(zone.apex()) {
                        qname = target;
                        continue;
                    }
                }
            }
        }
        break;
    }

    if resp.answers.is_empty() {
        // Negative answer: NXDOMAIN if nothing exists at the name, NODATA
        // otherwise; both carry the SOA for negative caching.
        if !zone.name_exists(&question.name) {
            resp.header.rcode = Rcode::NxDomain;
        }
        if let Some(soa) = zone.lookup(zone.apex(), RecordType::Soa) {
            resp.authorities.extend(soa.records());
        } else {
            // Synthesise a minimal SOA so negative caching still works for
            // generated zones that omit one.
            resp.authorities.push(Record::new(
                zone.apex().clone(),
                Ttl::from_mins(5),
                RData::Soa {
                    mname: zone.ns_names().first().cloned().unwrap_or_else(Name::root),
                    rname: zone.apex().clone(),
                    serial: 1,
                    refresh: 7200,
                    retry: 3600,
                    expire: 1_209_600,
                    minimum: 300,
                },
            ));
        }
        return;
    }

    // Positive answer: attach the zone's own infrastructure records. These
    // authority/additional copies are exactly what the paper's TTL-refresh
    // scheme consumes at the caching server.
    if let Some(ns_set) = zone.lookup(zone.apex(), RecordType::Ns) {
        resp.authorities.extend(ns_set.records());
        for ns_name in zone.ns_names() {
            if let Some(a_set) = zone.lookup(ns_name, RecordType::A) {
                resp.additionals.extend(a_set.records());
            }
        }
    }
}

impl fmt::Display for AuthServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}) serving {} zones",
            self.name,
            self.addr,
            self.zones.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_core::{Delegation, ResponseKind, ZoneBuilder};

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(192, 0, 2, last)
    }

    fn ucla_zone() -> Zone {
        ZoneBuilder::new(name("ucla.edu"))
            .ns(name("ns1.ucla.edu"), ip(1), Ttl::from_days(1))
            .ns(name("ns2.ucla.edu"), ip(2), Ttl::from_days(1))
            .a(name("www.ucla.edu"), ip(80), Ttl::from_hours(4))
            .record(Record::new(
                name("web.ucla.edu"),
                Ttl::from_hours(4),
                RData::Cname(name("www.ucla.edu")),
            ))
            .record(Record::new(
                name("ext.ucla.edu"),
                Ttl::from_hours(4),
                RData::Cname(name("cdn.example.net")),
            ))
            .delegate(Delegation {
                child: name("cs.ucla.edu"),
                ns_names: vec![name("ns.cs.ucla.edu")],
                ns_ttl: Ttl::from_hours(12),
                glue: vec![Record::new(
                    name("ns.cs.ucla.edu"),
                    Ttl::from_hours(12),
                    RData::A(ip(53)),
                )],
                ds: Vec::new(),
            })
            .build()
            .unwrap()
    }

    fn server() -> AuthServer {
        let mut s = AuthServer::new(name("ns1.ucla.edu"), ip(1));
        s.add_zone(ucla_zone());
        s
    }

    fn ask(server: &AuthServer, qname: &str, rtype: RecordType) -> Message {
        server.handle_query(&Message::query(9, Question::new(name(qname), rtype)))
    }

    #[test]
    fn authoritative_answer_includes_infrastructure_records() {
        let resp = ask(&server(), "www.ucla.edu", RecordType::A);
        assert_eq!(resp.kind(), ResponseKind::Answer);
        assert!(resp.header.authoritative);
        assert_eq!(resp.answers.len(), 1);
        // Authority carries the apex NS set…
        let ns: Vec<_> = resp
            .authorities
            .iter()
            .filter(|r| r.rtype() == RecordType::Ns)
            .collect();
        assert_eq!(ns.len(), 2);
        // …and additional carries glue for both servers.
        assert_eq!(resp.additionals.len(), 2);
    }

    #[test]
    fn referral_at_delegation_cut() {
        let resp = ask(&server(), "host.cs.ucla.edu", RecordType::A);
        assert_eq!(resp.kind(), ResponseKind::Referral);
        assert!(!resp.header.authoritative);
        assert!(resp.answers.is_empty());
        assert_eq!(resp.authorities[0].name(), &name("cs.ucla.edu"));
        assert_eq!(resp.additionals[0].name(), &name("ns.cs.ucla.edu"));
    }

    #[test]
    fn same_server_parent_and_child_answers_from_child() {
        let mut s = server();
        let child = ZoneBuilder::new(name("cs.ucla.edu"))
            .ns(name("ns.cs.ucla.edu"), ip(53), Ttl::from_hours(12))
            .a(name("host.cs.ucla.edu"), ip(99), Ttl::from_hours(1))
            .build()
            .unwrap();
        s.add_zone(child);
        let resp = ask(&s, "host.cs.ucla.edu", RecordType::A);
        assert_eq!(resp.kind(), ResponseKind::Answer);
        assert!(resp.header.authoritative);
    }

    #[test]
    fn nxdomain_for_missing_name() {
        let resp = ask(&server(), "nope.ucla.edu", RecordType::A);
        assert_eq!(resp.kind(), ResponseKind::NxDomain);
        assert!(resp
            .authorities
            .iter()
            .any(|r| r.rtype() == RecordType::Soa));
    }

    #[test]
    fn nodata_for_existing_name_wrong_type() {
        let resp = ask(&server(), "www.ucla.edu", RecordType::Mx);
        assert_eq!(resp.kind(), ResponseKind::NoData);
        assert_eq!(resp.header.rcode, Rcode::NoError);
    }

    #[test]
    fn refused_outside_authority() {
        let resp = ask(&server(), "www.mit.edu", RecordType::A);
        assert_eq!(resp.header.rcode, Rcode::Refused);
    }

    #[test]
    fn cname_chased_within_zone() {
        let resp = ask(&server(), "web.ucla.edu", RecordType::A);
        assert_eq!(resp.kind(), ResponseKind::Answer);
        // CNAME plus the target's A record.
        assert_eq!(resp.answers.len(), 2);
        assert_eq!(resp.answers[0].rtype(), RecordType::Cname);
        assert_eq!(resp.answers[1].rtype(), RecordType::A);
    }

    #[test]
    fn cname_to_external_target_returns_alias_only() {
        let resp = ask(&server(), "ext.ucla.edu", RecordType::A);
        assert_eq!(resp.kind(), ResponseKind::Answer);
        assert_eq!(resp.answers.len(), 1);
        assert_eq!(resp.answers[0].rtype(), RecordType::Cname);
    }

    #[test]
    fn malformed_query_gets_formerr() {
        let empty = Message::default();
        let resp = server().handle_query(&empty);
        assert_eq!(resp.header.rcode, Rcode::FormErr);
    }

    #[test]
    fn query_for_apex_ns_is_answered_authoritatively() {
        let resp = ask(&server(), "ucla.edu", RecordType::Ns);
        assert_eq!(resp.kind(), ResponseKind::Answer);
        assert!(resp.header.authoritative);
        assert_eq!(resp.answers.len(), 2);
    }
}
