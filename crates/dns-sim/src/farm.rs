//! The authoritative server population of a simulated universe.

use dns_auth::ZoneLookup;
use dns_core::{Message, Name, Ttl, Zone};
use dns_trace::Universe;
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

/// Every authoritative server in the universe, addressable by IP.
///
/// Each zone is materialised once into one shared table; a server is
/// just the list of table indices its address serves (most addresses
/// serve one zone, none more than a handful). Queries are answered by
/// [`dns_auth::respond`], the live `AuthServer`'s code path, over that
/// address's view of the table.
#[derive(Debug, Clone)]
pub struct ServerFarm {
    /// Every zone, in [`Universe::zones`] order.
    zones: Vec<Zone>,
    /// Index into `zones` by apex.
    by_apex: HashMap<Name, u32>,
    /// The sorted indices of the zones each address serves.
    servers: HashMap<Ipv4Addr, Box<[u32]>>,
}

impl ServerFarm {
    /// Builds the farm for `universe`, optionally overriding every
    /// non-root zone's infrastructure TTL (the paper's *long-TTL* scheme,
    /// a zone-operator-side change; see [`Universe::build_zones`]).
    pub fn build(universe: &Universe, long_ttl: Option<Ttl>) -> Self {
        let zones = universe.build_zones(long_ttl);
        let mut by_apex = HashMap::with_capacity(zones.len());
        let mut served: HashMap<Ipv4Addr, Vec<u32>> = HashMap::new();
        for (i, spec) in universe.zones().iter().enumerate() {
            let i = u32::try_from(i).expect("fewer than 2^32 zones");
            by_apex.insert(spec.apex.clone(), i);
            for (_, addr) in &spec.ns {
                let list = served.entry(*addr).or_default();
                // Zones are visited in index order, so each list is
                // sorted; skip an address a zone names twice.
                if list.last() != Some(&i) {
                    list.push(i);
                }
            }
        }
        let servers = served
            .into_iter()
            .map(|(addr, list)| (addr, list.into_boxed_slice()))
            .collect();
        ServerFarm {
            zones,
            by_apex,
            servers,
        }
    }

    /// Dispatches a query to the server at `addr`; `None` when no server
    /// listens there.
    pub fn handle(&self, addr: Ipv4Addr, query: &Message) -> Option<Message> {
        let zones = self.servers.get(&addr)?;
        Some(dns_auth::respond(&Served { farm: self, zones }, query))
    }

    /// Number of distinct server addresses.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether the farm is empty.
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Whether a server listens at `addr`.
    pub fn serves(&self, addr: Ipv4Addr) -> bool {
        self.servers.contains_key(&addr)
    }
}

/// One address's view of the farm: the zones it serves.
struct Served<'a> {
    farm: &'a ServerFarm,
    zones: &'a [u32],
}

impl ZoneLookup for Served<'_> {
    fn find(&self, name: &Name) -> Option<&Zone> {
        // Apexes enclosing one name differ in depth, so the deepest is
        // unique.
        self.zones
            .iter()
            .map(|&i| &self.farm.zones[i as usize])
            .filter(|zone| name.is_subdomain_of(zone.apex()))
            .max_by_key(|zone| zone.apex().label_count())
    }

    fn get(&self, apex: &Name) -> Option<&Zone> {
        let i = *self.farm.by_apex.get(apex)?;
        self.zones.binary_search(&i).ok()?;
        Some(&self.farm.zones[i as usize])
    }
}

impl fmt::Display for ServerFarm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "server farm ({} servers)", self.servers.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_auth::AuthServer;
    use dns_core::{Question, RecordType, ResponseKind};
    use dns_trace::UniverseSpec;
    use std::sync::Arc;

    fn universe() -> Universe {
        UniverseSpec::small().build(7)
    }

    #[test]
    fn farm_covers_every_server_address() {
        let u = universe();
        let farm = ServerFarm::build(&u, None);
        assert_eq!(farm.len(), u.server_assignments().len());
        for (addr, _) in u.server_assignments() {
            assert!(farm.serves(addr));
        }
    }

    #[test]
    fn root_server_answers_with_referral() {
        let u = universe();
        let farm = ServerFarm::build(&u, None);
        let root_addr = u.root_servers()[0].1;
        // Any TLD-or-deeper name should produce a referral from the root.
        let tld = u
            .zones()
            .iter()
            .find(|z| z.apex.label_count() == 1)
            .unwrap();
        let q = Message::query(1, Question::new(tld.apex.clone(), RecordType::Ns));
        let resp = farm.handle(root_addr, &q).unwrap();
        assert_eq!(resp.kind(), ResponseKind::Referral);
    }

    #[test]
    fn data_names_answer_authoritatively() {
        let u = universe();
        let farm = ServerFarm::build(&u, None);
        let zone = u.zones().iter().find(|z| !z.data_names.is_empty()).unwrap();
        let (host, _) = &zone.data_names[0];
        let addr = zone.ns[0].1;
        let q = Message::query(2, Question::new(host.clone(), RecordType::A));
        let resp = farm.handle(addr, &q).unwrap();
        assert_eq!(resp.kind(), ResponseKind::Answer);
        assert!(resp.header.authoritative);
    }

    #[test]
    fn unknown_address_yields_none() {
        let farm = ServerFarm::build(&universe(), None);
        let q = Message::query(3, Question::new("x.y".parse().unwrap(), RecordType::A));
        assert!(farm.handle(Ipv4Addr::new(203, 0, 113, 1), &q).is_none());
    }

    #[test]
    fn long_ttl_override_rewrites_zone_and_delegation_copies() {
        let u = universe();
        let ttl = Ttl::from_days(5);
        let farm = ServerFarm::build(&u, Some(ttl));
        // Child zone's own NS set carries the override.
        let zone = u
            .zones()
            .iter()
            .find(|z| z.apex.label_count() == 2)
            .unwrap();
        let q = Message::query(4, Question::new(zone.apex.clone(), RecordType::Ns));
        let resp = farm.handle(zone.ns[0].1, &q).unwrap();
        assert!(
            resp.answers.iter().all(|r| r.ttl() == ttl),
            "child NS records must carry the long TTL"
        );
        // Parent referral copy does too.
        let parent = u.get(zone.parent.as_ref().unwrap()).unwrap();
        let q = Message::query(
            5,
            Question::new(zone.data_names[0].0.clone(), RecordType::A),
        );
        let resp = farm.handle(parent.ns[0].1, &q).unwrap();
        assert_eq!(resp.kind(), ResponseKind::Referral);
        assert!(resp.authorities.iter().all(|r| r.ttl() == ttl));
    }

    #[test]
    fn shared_servers_serve_multiple_zones() {
        let u = universe();
        let farm = ServerFarm::build(&u, None);
        let shared = u
            .server_assignments()
            .into_iter()
            .find(|(_, zones)| zones.len() > 1)
            .expect("universe has shared servers");
        let (addr, apexes) = shared;
        for apex in apexes {
            let spec = u.get(&apex).unwrap();
            if spec.data_names.is_empty() {
                continue;
            }
            let q = Message::query(
                6,
                Question::new(spec.data_names[0].0.clone(), RecordType::A),
            );
            let resp = farm.handle(addr, &q).unwrap();
            assert_eq!(resp.kind(), ResponseKind::Answer, "zone {apex}");
        }
    }

    /// The farm as it was built before the shared zone table: the
    /// long TTL applied by republishing every non-root zone spec, every
    /// zone materialised once, and one `AuthServer` with its own zone
    /// store per address.
    fn reference_servers(u: &Universe, long_ttl: Option<Ttl>) -> HashMap<Ipv4Addr, AuthServer> {
        let specs = u
            .zones()
            .iter()
            .cloned()
            .map(|mut spec| {
                if let Some(ttl) = long_ttl.filter(|_| !spec.apex.is_root()) {
                    spec.infra_ttl = ttl;
                }
                spec
            })
            .collect();
        let u = Universe::from_zone_specs(specs).unwrap();
        let zones: HashMap<Name, Arc<Zone>> = u
            .zones()
            .iter()
            .map(|spec| (spec.apex.clone(), Arc::new(u.build_zone(spec, None))))
            .collect();
        u.server_assignments()
            .into_iter()
            .map(|(addr, apexes)| {
                let mut server = AuthServer::new(Name::root(), addr);
                for apex in apexes {
                    server.add_zone(Arc::clone(&zones[&apex]));
                }
                (addr, server)
            })
            .collect()
    }

    /// Every query the equivalence test asks about a zone: apex NS and
    /// MX, each data name and alias, a missing name, and for each child
    /// its apex and a name below it (referrals) plus its DS set.
    fn probes(u: &Universe, apex: &Name) -> Vec<Question> {
        let below =
            |label: &str, parent: &Name| label.parse::<Name>().unwrap().append(parent).unwrap();
        let spec = u.get(apex).unwrap();
        let mut qs = vec![
            Question::new(apex.clone(), RecordType::Ns),
            Question::new(apex.clone(), RecordType::Mx),
            Question::new(below("nx-probe", apex), RecordType::A),
        ];
        qs.extend(
            spec.data_names
                .iter()
                .map(|(n, _)| Question::new(n.clone(), RecordType::A)),
        );
        qs.extend(
            spec.cnames
                .iter()
                .map(|(a, _, _)| Question::new(a.clone(), RecordType::A)),
        );
        for child in u.children_of(apex) {
            qs.push(Question::new(child.apex.clone(), RecordType::A));
            qs.push(Question::new(below("www", &child.apex), RecordType::A));
            qs.push(Question::new(child.apex.clone(), RecordType::Ds));
        }
        qs
    }

    /// `u` with each third-level zone also served by its parent's first
    /// server, so some addresses serve a zone and its child (the case
    /// where the deepest enclosing zone must be picked).
    fn with_nested_servers(u: &Universe) -> Universe {
        let specs = u
            .zones()
            .iter()
            .cloned()
            .map(|mut spec| {
                if spec.apex.label_count() == 3 {
                    let parent = u.get(spec.parent.as_ref().unwrap()).unwrap();
                    spec.ns.push(parent.ns[0].clone());
                }
                spec
            })
            .collect();
        Universe::from_zone_specs(specs).unwrap()
    }

    #[test]
    fn flat_farm_answers_like_one_auth_server_per_address() {
        let small = UniverseSpec::small().build(7);
        let signed = UniverseSpec::small_signed().build(7);
        let nested = with_nested_servers(&signed);
        assert!(nested.server_assignments().values().any(|apexes| apexes
            .iter()
            .any(|a| apexes.iter().any(|b| a.is_proper_subdomain_of(b)))));
        for u in [small, signed, nested] {
            for long_ttl in [None, Some(Ttl::from_days(3))] {
                let farm = ServerFarm::build(&u, long_ttl);
                let reference = reference_servers(&u, long_ttl);
                assert_eq!(farm.len(), reference.len());
                let (mut asked, mut kinds) = (0, std::collections::BTreeSet::new());
                for (addr, apexes) in u.server_assignments() {
                    for apex in &apexes {
                        for q in probes(&u, apex) {
                            let query = Message::query(7, q);
                            let want = reference[&addr].handle_query(&query);
                            let got = farm.handle(addr, &query);
                            assert_eq!(got.as_ref(), Some(&want), "{addr} {:?}", query.question());
                            kinds.insert(format!("{:?}", want.kind()));
                            asked += 1;
                        }
                    }
                }
                assert!(asked > 10_000, "only {asked} probes");
                for kind in ["Answer", "Referral", "NxDomain", "NoData"] {
                    assert!(kinds.contains(kind), "no {kind} among {kinds:?}");
                }
            }
        }
    }
}
