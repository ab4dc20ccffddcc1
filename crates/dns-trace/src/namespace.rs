//! Synthetic DNS tree generation.
//!
//! Produces a [`Universe`]: a delegation tree shaped like the 2006 DNS the
//! paper probed — a root, a few hundred TLDs with multi-day infrastructure
//! TTLs, a Zipf-skewed population of second-level zones with the paper's
//! observed minutes-to-days IRR TTL mixture, and a sprinkling of deeper
//! zones (the `cs.ucla.edu` pattern).

use crate::{TtlModel, Zipf};
use dns_core::{Delegation, Label, Name, RData, Record, Ttl, Zone, ZoneBuilder};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

/// One generated zone, before conversion to a full [`Zone`].
#[derive(Debug, Clone)]
pub struct ZoneSpec {
    /// Zone apex.
    pub apex: Name,
    /// Parent apex (`None` for the root).
    pub parent: Option<Name>,
    /// Authoritative servers: `(name, address)`.
    pub ns: Vec<(Name, Ipv4Addr)>,
    /// TTL of the zone's infrastructure records.
    pub infra_ttl: Ttl,
    /// Plain `A`-record names: `(owner, ttl)`.
    pub data_names: Vec<(Name, Ttl)>,
    /// CNAME records: `(alias, target, ttl)`.
    pub cnames: Vec<(Name, Name, Ttl)>,
    /// Whether the apex publishes an MX record (pointing at
    /// `mail.<apex>`).
    pub has_mx: bool,
    /// Synthetic DNSSEC key `(key_tag, public_key)` when the zone is
    /// signed; the parent's delegation then carries the matching DS.
    pub dnskey: Option<(u16, u32)>,
}

impl ZoneSpec {
    /// All names inside this zone a client might query (data names,
    /// aliases, and the apex when it has an MX).
    pub fn query_names(&self) -> impl Iterator<Item = &Name> {
        self.data_names
            .iter()
            .map(|(n, _)| n)
            .chain(self.cnames.iter().map(|(a, _, _)| a))
    }
}

/// Parameters for [`Universe`] generation.
#[derive(Debug, Clone, PartialEq)]
pub struct UniverseSpec {
    /// Number of top-level domains.
    pub tld_count: usize,
    /// Number of second-level zones.
    pub sld_count: usize,
    /// Fraction of second-level zones that delegate child zones.
    pub deep_zone_fraction: f64,
    /// Maximum child zones under a deep second-level zone.
    pub max_children: usize,
    /// Fraction of zones whose second name-server lives in a foreign zone
    /// (no glue at the parent).
    pub out_of_bailiwick_fraction: f64,
    /// Maximum plain data names per zone (at least one is generated).
    pub max_data_names: usize,
    /// Fraction of zones that also publish a CNAME alias.
    pub cname_fraction: f64,
    /// Fraction of zones that publish an apex MX.
    pub mx_fraction: f64,
    /// Zipf exponent skewing how second-level zones pile onto TLDs.
    pub tld_skew: f64,
    /// Fraction of zones signed with a synthetic DNSSEC key (paper §6).
    /// Zero by default so the headline experiments match the unsigned
    /// 2006 DNS the paper measured.
    pub signed_fraction: f64,
}

impl UniverseSpec {
    /// A compact universe (~3k zones) for tests and the quickstart.
    pub fn small() -> Self {
        UniverseSpec {
            tld_count: 40,
            sld_count: 2_500,
            deep_zone_fraction: 0.08,
            max_children: 3,
            out_of_bailiwick_fraction: 0.12,
            max_data_names: 4,
            cname_fraction: 0.25,
            mx_fraction: 0.30,
            tld_skew: 0.9,
            signed_fraction: 0.0,
        }
    }

    /// The experiment-scale universe (~10k zones), matching the order of
    /// magnitude of distinct zones in the paper's traces while keeping a
    /// full sweep tractable on one core.
    pub fn standard() -> Self {
        UniverseSpec {
            tld_count: 250,
            sld_count: 8_000,
            deep_zone_fraction: 0.08,
            max_children: 4,
            out_of_bailiwick_fraction: 0.12,
            max_data_names: 5,
            cname_fraction: 0.25,
            mx_fraction: 0.30,
            tld_skew: 0.9,
            signed_fraction: 0.0,
        }
    }

    /// A small universe where every zone below the TLDs is signed — for
    /// exercising the §6 DNSSEC extension at scale.
    pub fn small_signed() -> Self {
        UniverseSpec {
            signed_fraction: 1.0,
            ..UniverseSpec::small()
        }
    }

    /// Generates the universe deterministically from `seed`.
    pub fn build(&self, seed: u64) -> Universe {
        let (sink, root_servers) =
            Generator::new(self.clone(), seed, UniverseSink::default()).run();
        Universe {
            zones: sink.zones,
            index: sink.index,
            children: sink.children,
            root_servers,
        }
    }

    /// Generates the same tree as [`UniverseSpec::build`] — identical
    /// seed, identical RNG stream — but compresses every zone into a
    /// compact interned record as it is produced instead of keeping the
    /// [`ZoneSpec`]s, so memory stays `O(zones)` with a tiny constant:
    /// the path to namespaces of millions of zones.
    pub fn build_interned(&self, seed: u64) -> crate::InternedNamespace {
        let (sink, _) =
            Generator::new(self.clone(), seed, crate::intern::InternedSink::default()).run();
        sink.seal()
    }
}

/// Where generated zones go: [`Universe::build`](UniverseSpec::build)
/// collects full [`ZoneSpec`]s, the interned path compresses each one on
/// arrival. The generator reads back only what later zones need — the
/// running count, an apex, a donor zone's primary server.
pub(crate) trait ZoneSink {
    /// Accepts the next generated zone. Zone `idx` is assigned in call
    /// order.
    fn push(&mut self, spec: ZoneSpec);
    /// Zones accepted so far.
    fn len(&self) -> usize;
    /// The apex of an earlier zone (deep-zone pass).
    fn apex(&self, idx: usize) -> Name;
    /// The primary name server of an earlier zone (out-of-bailiwick
    /// donor lookup).
    fn ns0(&self, idx: usize) -> (Name, Ipv4Addr);
}

/// The collecting sink behind [`UniverseSpec::build`].
#[derive(Debug, Default)]
struct UniverseSink {
    zones: Vec<ZoneSpec>,
    index: HashMap<Name, usize>,
    children: HashMap<Name, Vec<usize>>,
}

impl ZoneSink for UniverseSink {
    fn push(&mut self, spec: ZoneSpec) {
        let idx = self.zones.len();
        if let Some(parent) = &spec.parent {
            self.children.entry(parent.clone()).or_default().push(idx);
        }
        self.index.insert(spec.apex.clone(), idx);
        self.zones.push(spec);
    }

    fn len(&self) -> usize {
        self.zones.len()
    }

    fn apex(&self, idx: usize) -> Name {
        self.zones[idx].apex.clone()
    }

    fn ns0(&self, idx: usize) -> (Name, Ipv4Addr) {
        self.zones[idx].ns[0].clone()
    }
}

/// Parameters for NXNSAttack-style delegation-bomb injection
/// ([`Universe::with_delegation_bombs`]).
///
/// Each bomb is a malicious zone whose delegation names `fanout`
/// nonexistent out-of-zone name-server hosts: the referral carries no glue
/// (the servers are out of bailiwick) and every server-name lookup is a
/// guaranteed NXDOMAIN, so one query against a cold bomb zone drives the
/// resolver through `fanout` futile glue-chasing walks — the
/// amplification MaxFetch(k) clamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NxnsBombSpec {
    /// Number of bomb zones to graft onto the existing TLDs.
    pub bombs: usize,
    /// Nonexistent out-of-zone NS names per bomb zone.
    pub fanout: usize,
}

impl NxnsBombSpec {
    /// A bomb set with the given shape.
    pub fn new(bombs: usize, fanout: usize) -> Self {
        NxnsBombSpec { bombs, fanout }
    }
}

/// A generated DNS tree plus the bookkeeping the simulator needs.
#[derive(Debug, Clone)]
pub struct Universe {
    zones: Vec<ZoneSpec>,
    index: HashMap<Name, usize>,
    children: HashMap<Name, Vec<usize>>,
    root_servers: Vec<(Name, Ipv4Addr)>,
}

impl Universe {
    /// Reassembles a universe from zone specs (as loaded from a file).
    /// The root zone's servers become the root hints.
    ///
    /// # Errors
    ///
    /// Returns [`dns_core::DnsError::InvalidZone`] when no root zone is
    /// present or a zone references a missing parent.
    pub fn from_zone_specs(zones: Vec<ZoneSpec>) -> Result<Universe, dns_core::DnsError> {
        let mut index = HashMap::new();
        let mut children: HashMap<Name, Vec<usize>> = HashMap::new();
        for (i, spec) in zones.iter().enumerate() {
            index.insert(spec.apex.clone(), i);
            if let Some(parent) = &spec.parent {
                children.entry(parent.clone()).or_default().push(i);
            }
        }
        for spec in &zones {
            if let Some(parent) = &spec.parent {
                if !index.contains_key(parent) {
                    return Err(dns_core::DnsError::InvalidZone(format!(
                        "zone {} references missing parent {}",
                        spec.apex, parent
                    )));
                }
            }
        }
        let root_servers = index
            .get(&Name::root())
            .map(|&i| zones[i].ns.clone())
            .ok_or_else(|| dns_core::DnsError::InvalidZone("no root zone".to_string()))?;
        Ok(Universe {
            zones,
            index,
            children,
            root_servers,
        })
    }

    /// Number of zones (including the root).
    pub fn zone_count(&self) -> usize {
        self.zones.len()
    }

    /// All zone specs, root first.
    pub fn zones(&self) -> &[ZoneSpec] {
        &self.zones
    }

    /// Looks up a zone spec by apex.
    pub fn get(&self, apex: &Name) -> Option<&ZoneSpec> {
        self.index.get(apex).map(|&i| &self.zones[i])
    }

    /// The deepest zone containing `name`.
    pub fn zone_of(&self, name: &Name) -> Option<&ZoneSpec> {
        name.ancestors()
            .find_map(|a| self.index.get(&a))
            .map(|&i| &self.zones[i])
    }

    /// Direct child zones of `apex`.
    pub fn children_of(&self, apex: &Name) -> impl Iterator<Item = &ZoneSpec> {
        self.children
            .get(apex)
            .into_iter()
            .flatten()
            .map(|&i| &self.zones[i])
    }

    /// The root-server hints `(name, address)` a resolver needs.
    pub fn root_servers(&self) -> &[(Name, Ipv4Addr)] {
        &self.root_servers
    }

    /// Apexes of the root and all top-level zones — the attack target set
    /// of the paper's headline experiment.
    pub fn root_and_tld_apexes(&self) -> Vec<Name> {
        self.zones
            .iter()
            .filter(|z| z.apex.label_count() <= 1)
            .map(|z| z.apex.clone())
            .collect()
    }

    /// Materialises one zone as a servable [`Zone`] with its delegations;
    /// `long_ttl` is applied as in [`Universe::build_zones`].
    ///
    /// # Panics
    ///
    /// Panics if `spec` is inconsistent (cannot happen for generated
    /// universes).
    pub fn build_zone(&self, spec: &ZoneSpec, long_ttl: Option<Ttl>) -> Zone {
        let infra_ttl = published_infra_ttl(spec, long_ttl);
        let mut builder = ZoneBuilder::new(spec.apex.clone()).infra_ttl(infra_ttl);
        if let Some((key_tag, public_key)) = spec.dnskey {
            builder = builder.dnskey(key_tag, public_key);
        }
        for (ns_name, addr) in &spec.ns {
            builder = builder.ns(ns_name.clone(), *addr, infra_ttl);
        }
        for (owner, ttl) in &spec.data_names {
            builder = builder.a(owner.clone(), self.addr_for_host(owner), *ttl);
        }
        for (alias, target, ttl) in &spec.cnames {
            builder = builder.record(Record::new(
                alias.clone(),
                *ttl,
                RData::Cname(target.clone()),
            ));
        }
        if spec.has_mx {
            let mail = child_name("mail", &spec.apex);
            builder = builder
                .record(Record::new(
                    spec.apex.clone(),
                    Ttl::from_hours(4),
                    RData::Mx {
                        preference: 10,
                        exchange: mail.clone(),
                    },
                ))
                .a(mail.clone(), self.addr_for_host(&mail), Ttl::from_hours(4));
        }
        for child in self.children_of(&spec.apex) {
            let child_ttl = published_infra_ttl(child, long_ttl);
            let glue: Vec<Record> = child
                .ns
                .iter()
                .filter(|(n, _)| n.is_subdomain_of(&child.apex))
                .map(|(n, a)| Record::new(n.clone(), child_ttl, RData::A(*a)))
                .collect();
            let ds = child
                .dnskey
                .map(|(key_tag, public_key)| {
                    vec![Record::new(
                        child.apex.clone(),
                        child_ttl,
                        RData::Ds {
                            key_tag,
                            digest: dns_core::synthetic_key_digest(public_key),
                        },
                    )]
                })
                .unwrap_or_default();
            builder = builder.delegate(Delegation {
                child: child.apex.clone(),
                ns_names: child.ns.iter().map(|(n, _)| n.clone()).collect(),
                ns_ttl: child_ttl,
                glue,
                ds,
            });
        }
        builder.build().expect("generated zones are consistent")
    }

    /// A copy of this universe with NXNSAttack delegation bombs grafted
    /// onto the existing TLDs (round-robin).
    ///
    /// Bomb zone `i` is `bomb{i:04}.<tld>`; its `ns` list names
    /// `spec.fanout` hosts `nx-b{i}-{j}.<donor SLD>` that do **not** exist
    /// in their donor zones (the generator never emits `nx*` labels), so
    /// the parent's referral carries no glue and every server-address
    /// chase ends in NXDOMAIN. Bomb zones publish no data names, aliases,
    /// or MX, so [`Universe::query_targets`] — and therefore any trace
    /// generated from this universe — is unchanged by the injection;
    /// only an adversary stream ever touches a bomb.
    ///
    /// # Panics
    ///
    /// Panics when the universe has no TLDs or no second-level donor
    /// zones (cannot happen for generated universes).
    pub fn with_delegation_bombs(&self, spec: NxnsBombSpec) -> Universe {
        let tlds: Vec<Name> = self
            .zones
            .iter()
            .filter(|z| z.apex.label_count() == 1)
            .map(|z| z.apex.clone())
            .collect();
        let donors: Vec<Name> = self
            .zones
            .iter()
            .filter(|z| z.apex.label_count() == 2 && !z.data_names.is_empty())
            .map(|z| z.apex.clone())
            .collect();
        assert!(
            !tlds.is_empty() && !donors.is_empty(),
            "delegation bombs need TLDs and donor SLDs"
        );
        let mut out = self.clone();
        // Bomb "server" addresses come from the 198.18/15 benchmarking
        // range: disjoint from the generator's sequential 10/8 servers and
        // the 172.16/12 data hosts. They are unreachable by construction —
        // the names resolving to them never exist.
        let mut next_addr = u32::from_be_bytes([198, 18, 0, 1]);
        for i in 0..spec.bombs {
            let parent = tlds[i % tlds.len()].clone();
            let apex = child_name(&format!("bomb{i:04}"), &parent);
            let ns = (0..spec.fanout)
                .map(|j| {
                    let donor = &donors[(i * spec.fanout + j) % donors.len()];
                    let name = child_name(&format!("nx-b{i}-{j}"), donor);
                    let addr = Ipv4Addr::from(next_addr);
                    next_addr += 1;
                    (name, addr)
                })
                .collect();
            let idx = out.zones.len();
            out.index.insert(apex.clone(), idx);
            out.children.entry(parent.clone()).or_default().push(idx);
            out.zones.push(ZoneSpec {
                apex,
                parent: Some(parent),
                ns,
                infra_ttl: Ttl::from_hours(1),
                data_names: Vec::new(),
                cnames: Vec::new(),
                has_mx: false,
                dnskey: None,
            });
        }
        out
    }

    /// Apexes of the delegation-bomb zones injected by
    /// [`Universe::with_delegation_bombs`], in injection order (empty for
    /// an unmodified universe). Bombs are the only zones below the TLDs
    /// that publish no query targets.
    pub fn delegation_bomb_apexes(&self) -> Vec<Name> {
        self.zones
            .iter()
            .filter(|z| z.apex.label_count() >= 2 && z.data_names.is_empty() && z.cnames.is_empty())
            .map(|z| z.apex.clone())
            .collect()
    }

    /// Materialises every zone, in [`Universe::zones`] order.
    ///
    /// With `long_ttl` set, every non-root zone publishes its
    /// infrastructure records with that TTL — the paper's *long-TTL*
    /// scheme applied by all zone operators at once (Figures 10–11). Both
    /// the zone's own copies (apex NS set, glue, DNSKEY) and the parent's
    /// delegation copies (NS set, glue, DS) carry it, exactly as
    /// republishing the zones would.
    pub fn build_zones(&self, long_ttl: Option<Ttl>) -> Vec<Zone> {
        self.zones
            .iter()
            .map(|spec| self.build_zone(spec, long_ttl))
            .collect()
    }

    /// Which zones each server address serves (a shared name-server may
    /// serve many zones).
    pub fn server_assignments(&self) -> HashMap<Ipv4Addr, Vec<Name>> {
        let mut map: HashMap<Ipv4Addr, Vec<Name>> = HashMap::new();
        for spec in &self.zones {
            for (_, addr) in &spec.ns {
                map.entry(*addr).or_default().push(spec.apex.clone());
            }
        }
        map
    }

    /// A deterministic synthetic address for a data host name.
    fn addr_for_host(&self, name: &Name) -> Ipv4Addr {
        // Hash the name into the 172.16/12 test range; collisions are
        // harmless (the experiments only check resolvability).
        let mut h: u32 = 0x811c_9dc5;
        for label in name.labels() {
            for &b in label {
                h ^= u32::from(b);
                h = h.wrapping_mul(0x0100_0193);
            }
        }
        Ipv4Addr::from(0xAC10_0000 | (h & 0x000F_FFFF))
    }

    /// Every client-queryable name: `(name, owning zone index)`.
    pub fn query_targets(&self) -> Vec<(Name, usize)> {
        let mut targets = Vec::new();
        for (idx, spec) in self.zones.iter().enumerate() {
            for name in spec.query_names() {
                targets.push((name.clone(), idx));
            }
            if spec.has_mx {
                targets.push((spec.apex.clone(), idx));
            }
        }
        targets
    }
}

impl fmt::Display for Universe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "universe ({} zones, {} root servers)",
            self.zones.len(),
            self.root_servers.len()
        )
    }
}

/// The TTL `spec`'s infrastructure records are published with: the
/// long-TTL override when one is set, except at the root.
fn published_infra_ttl(spec: &ZoneSpec, long_ttl: Option<Ttl>) -> Ttl {
    match long_ttl {
        Some(ttl) if !spec.apex.is_root() => ttl,
        _ => spec.infra_ttl,
    }
}

fn child_name(label: &str, parent: &Name) -> Name {
    parent
        .child(Label::new(label.as_bytes()).expect("static labels are valid"))
        .expect("generated names are short")
}

struct Generator<S: ZoneSink> {
    spec: UniverseSpec,
    rng: StdRng,
    next_addr: u32,
    sink: S,
    infra_ttls: TtlModel,
    top_ttls: TtlModel,
    data_ttls: TtlModel,
}

impl<S: ZoneSink> Generator<S> {
    fn new(spec: UniverseSpec, seed: u64, sink: S) -> Self {
        Generator {
            spec,
            rng: StdRng::seed_from_u64(seed),
            next_addr: u32::from_be_bytes([10, 0, 0, 1]),
            sink,
            infra_ttls: TtlModel::infrastructure(),
            top_ttls: TtlModel::top_level(),
            data_ttls: TtlModel::data(),
        }
    }

    fn addr(&mut self) -> Ipv4Addr {
        let a = Ipv4Addr::from(self.next_addr);
        self.next_addr += 1;
        a
    }

    fn push_zone(&mut self, spec: ZoneSpec) {
        self.sink.push(spec);
    }

    fn run(mut self) -> (S, Vec<(Name, Ipv4Addr)>) {
        // Root.
        let root_servers: Vec<(Name, Ipv4Addr)> = (0..2)
            .map(|i| {
                let name: Name = format!("{}.root-servers.net", (b'a' + i) as char)
                    .parse()
                    .expect("static name");
                let addr = self.addr();
                (name, addr)
            })
            .collect();
        self.push_zone(ZoneSpec {
            apex: Name::root(),
            parent: None,
            ns: root_servers.clone(),
            infra_ttl: Ttl::from_days(7),
            data_names: Vec::new(),
            cnames: Vec::new(),
            has_mx: false,
            dnskey: None,
        });

        // TLDs: a handful of real generic labels plus generated ones.
        let mut tld_names: Vec<Name> = Vec::new();
        let real = [
            "com", "net", "org", "edu", "gov", "uk", "cn", "de", "jp", "fr",
        ];
        for label in real.iter().take(self.spec.tld_count) {
            tld_names.push(label.parse().expect("static label"));
        }
        for i in tld_names.len()..self.spec.tld_count {
            tld_names.push(format!("t{i:03}").parse().expect("generated label"));
        }
        for apex in &tld_names {
            let ns_count = 2 + (self.rng.random_range(0..2usize));
            let ttl = self.top_ttls.sample(&mut self.rng);
            let ns = (0..ns_count)
                .map(|i| {
                    let name = child_name(&format!("ns{}", i + 1), apex);
                    let addr = self.addr();
                    (name, addr)
                })
                .collect();
            self.push_zone(ZoneSpec {
                apex: apex.clone(),
                parent: Some(Name::root()),
                ns,
                infra_ttl: ttl,
                data_names: Vec::new(),
                cnames: Vec::new(),
                has_mx: false,
                dnskey: None,
            });
        }

        // Second-level zones, Zipf-piled onto TLDs.
        let tld_zipf = Zipf::new(tld_names.len(), self.spec.tld_skew);
        let first_sld = self.sink.len();
        for i in 0..self.spec.sld_count {
            let tld = &tld_names[tld_zipf.sample(&mut self.rng)];
            let apex = child_name(&format!("z{i:05}"), tld);
            let spec = self.make_leafish_zone(apex, tld.clone(), first_sld);
            self.push_zone(spec);
        }

        // Deeper zones under a fraction of the second-level zones.
        let sld_range = first_sld..self.sink.len();
        let mut deep_parents: Vec<usize> = Vec::new();
        for idx in sld_range {
            if self.rng.random::<f64>() < self.spec.deep_zone_fraction {
                deep_parents.push(idx);
            }
        }
        for parent_idx in deep_parents {
            let parent_apex = self.sink.apex(parent_idx);
            let n_children = self.rng.random_range(1..=self.spec.max_children);
            for c in 0..n_children {
                let apex = child_name(&format!("sub{c}"), &parent_apex);
                let spec = self.make_leafish_zone(apex, parent_apex.clone(), first_sld);
                self.push_zone(spec);
            }
        }

        (self.sink, root_servers)
    }

    /// A zone that mainly serves data (second-level or deeper).
    fn make_leafish_zone(&mut self, apex: Name, parent: Name, first_sld: usize) -> ZoneSpec {
        let infra_ttl = self.infra_ttls.sample(&mut self.rng);
        let mut ns: Vec<(Name, Ipv4Addr)> = Vec::new();
        let own = child_name("ns1", &apex);
        let own_addr = self.addr();
        ns.push((own, own_addr));
        // Second server: usually in-zone, sometimes hosted by an earlier
        // zone's server (out-of-bailiwick, no glue possible).
        if self.sink.len() > first_sld
            && self.rng.random::<f64>() < self.spec.out_of_bailiwick_fraction
        {
            let donor_idx = self.rng.random_range(first_sld..self.sink.len());
            ns.push(self.sink.ns0(donor_idx));
        } else {
            ns.push((child_name("ns2", &apex), self.addr()));
        }

        let n_data = self.rng.random_range(1..=self.spec.max_data_names);
        let mut data_names = vec![(
            child_name("www", &apex),
            self.data_ttls.sample(&mut self.rng),
        )];
        for k in 1..n_data {
            data_names.push((
                child_name(&format!("host{k}"), &apex),
                self.data_ttls.sample(&mut self.rng),
            ));
        }
        let mut cnames = Vec::new();
        if self.rng.random::<f64>() < self.spec.cname_fraction {
            cnames.push((
                child_name("web", &apex),
                data_names[0].0.clone(),
                self.data_ttls.sample(&mut self.rng),
            ));
        }
        let has_mx = self.rng.random::<f64>() < self.spec.mx_fraction;
        // Only consume randomness when signing is enabled, so unsigned
        // universes (the paper's 2006 DNS) are bit-identical to those
        // generated before the DNSSEC extension existed.
        let dnskey = if self.spec.signed_fraction > 0.0 {
            (self.rng.random::<f64>() < self.spec.signed_fraction).then(|| {
                let key_tag: u16 = self.rng.random();
                let public_key: u32 = self.rng.random();
                (key_tag, public_key)
            })
        } else {
            None
        };
        ZoneSpec {
            apex,
            parent: Some(parent),
            ns,
            infra_ttl,
            data_names,
            cnames,
            has_mx,
            dnskey,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Universe {
        UniverseSpec::small().build(7)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.zone_count(), b.zone_count());
        for (za, zb) in a.zones().iter().zip(b.zones()) {
            assert_eq!(za.apex, zb.apex);
            assert_eq!(za.ns, zb.ns);
            assert_eq!(za.infra_ttl, zb.infra_ttl);
        }
    }

    #[test]
    fn tree_structure_is_consistent() {
        let u = small();
        for spec in u.zones() {
            if let Some(parent) = &spec.parent {
                assert!(spec.apex.is_proper_subdomain_of(parent));
                assert!(u.get(parent).is_some(), "parent {parent} missing");
            } else {
                assert!(spec.apex.is_root());
            }
        }
    }

    #[test]
    fn zone_counts_match_spec() {
        let spec = UniverseSpec::small();
        let u = spec.build(7);
        // Root + TLDs + SLDs + deep zones.
        assert!(u.zone_count() >= 1 + spec.tld_count + spec.sld_count);
        assert_eq!(u.root_and_tld_apexes().len(), 1 + spec.tld_count);
    }

    #[test]
    fn every_zone_has_servers_and_data_zones_have_names() {
        let u = small();
        for spec in u.zones() {
            assert!(!spec.ns.is_empty(), "{} has no servers", spec.apex);
            if spec.apex.label_count() >= 2 {
                assert!(!spec.data_names.is_empty());
            }
        }
    }

    #[test]
    fn some_zones_are_out_of_bailiwick_hosted() {
        let u = small();
        let oob = u
            .zones()
            .iter()
            .filter(|z| z.ns.iter().any(|(n, _)| !n.is_subdomain_of(&z.apex)))
            .count();
        assert!(oob > 0, "expected some out-of-bailiwick hosting");
        // And shared servers serve multiple zones.
        let assignments = u.server_assignments();
        assert!(assignments.values().any(|zones| zones.len() > 1));
    }

    #[test]
    fn built_zones_delegate_their_children() {
        let u = small();
        let root_zone = u.build_zone(u.get(&Name::root()).unwrap(), None);
        assert_eq!(
            root_zone.delegations().count(),
            u.children_of(&Name::root()).count()
        );
        // Pick a TLD with children and check glue presence for
        // in-bailiwick servers.
        let tld = u
            .zones()
            .iter()
            .find(|z| z.apex.label_count() == 1 && u.children_of(&z.apex).next().is_some())
            .expect("some TLD has children");
        let tld_zone = u.build_zone(tld, None);
        for d in tld_zone.delegations() {
            for (n, _) in d.glue.iter().map(|g| (g.name().clone(), ())) {
                assert!(n.is_subdomain_of(&d.child));
            }
        }
    }

    #[test]
    fn build_zones_applies_long_ttl_to_every_infrastructure_copy() {
        use dns_core::RecordType;
        let u = UniverseSpec::small_signed().build(7);
        let ttl = Ttl::from_days(5);
        let zones = u.build_zones(Some(ttl));
        assert_eq!(zones.len(), u.zone_count());
        let mut signed_delegations = 0;
        for (spec, zone) in u.zones().iter().zip(&zones) {
            assert_eq!(zone.apex(), &spec.apex);
            // The root's operators are outside the scheme.
            let own = if spec.apex.is_root() {
                spec.infra_ttl
            } else {
                ttl
            };
            assert_eq!(zone.infra_ttl(), own, "{}", spec.apex);
            assert_eq!(zone.lookup(&spec.apex, RecordType::Ns).unwrap().ttl(), own);
            for ns in zone
                .ns_names()
                .iter()
                .filter(|n| n.is_subdomain_of(&spec.apex))
            {
                assert_eq!(zone.lookup(ns, RecordType::A).unwrap().ttl(), own);
            }
            // Every parent-side copy carries the child's override.
            for d in zone.delegations() {
                assert_eq!(d.ns_ttl, ttl, "{}", d.child);
                assert!(d.glue.iter().chain(&d.ds).all(|r| r.ttl() == ttl));
                signed_delegations += usize::from(!d.ds.is_empty());
            }
        }
        assert!(signed_delegations > 0);
        assert_ne!(
            u.zones()[0].infra_ttl,
            ttl,
            "the root's own TTL must differ"
        );
        // Without an override every zone keeps its generated TTL.
        let plain = u.build_zones(None);
        assert!(u
            .zones()
            .iter()
            .zip(&plain)
            .all(|(spec, zone)| zone.infra_ttl() == spec.infra_ttl));
    }

    #[test]
    fn zone_of_resolves_names_to_owners() {
        let u = small();
        let spec = u.zones().iter().find(|z| !z.data_names.is_empty()).unwrap();
        let (name, _) = &spec.data_names[0];
        assert_eq!(u.zone_of(name).unwrap().apex, spec.apex);
    }

    #[test]
    fn query_targets_cover_all_data_names() {
        let u = small();
        let targets = u.query_targets();
        let total_names: usize = u
            .zones()
            .iter()
            .map(|z| z.data_names.len() + z.cnames.len() + usize::from(z.has_mx))
            .sum();
        assert_eq!(targets.len(), total_names);
    }

    #[test]
    fn infra_ttls_follow_the_reported_distribution() {
        let u = UniverseSpec::standard().build(11);
        let slds: Vec<&ZoneSpec> = u
            .zones()
            .iter()
            .filter(|z| z.apex.label_count() >= 2)
            .collect();
        let short = slds
            .iter()
            .filter(|z| z.infra_ttl <= Ttl::from_hours(12))
            .count();
        let frac = short as f64 / slds.len() as f64;
        assert!(frac > 0.6, "most IRR TTLs should be <= 12h, got {frac}");
    }

    #[test]
    fn delegation_bombs_leave_query_targets_unchanged() {
        let base = small();
        let bombed = base.with_delegation_bombs(NxnsBombSpec::new(64, 12));
        assert_eq!(bombed.zone_count(), base.zone_count() + 64);
        // Trace generation draws from query_targets: identical targets
        // mean traces over the bombed universe are byte-identical.
        assert_eq!(bombed.query_targets(), base.query_targets());
        assert!(base.delegation_bomb_apexes().is_empty());
        assert_eq!(bombed.delegation_bomb_apexes().len(), 64);
    }

    #[test]
    fn delegation_bombs_are_glueless_out_of_zone_referrals() {
        let u = small().with_delegation_bombs(NxnsBombSpec::new(8, 10));
        for apex in u.delegation_bomb_apexes() {
            let bomb = u.get(&apex).unwrap();
            assert_eq!(bomb.ns.len(), 10);
            // Every server name is out of bailiwick and nonexistent
            // (the generator never emits nx* labels).
            for (n, _) in &bomb.ns {
                assert!(!n.is_subdomain_of(&apex));
                assert!(u.zone_of(n).is_some());
                let owner = u.zone_of(n).unwrap();
                assert!(owner.query_names().all(|q| q != n));
                assert!(owner.ns.iter().all(|(sn, _)| sn != n));
            }
            // The parent's delegation to the bomb carries zero glue.
            let parent = u.get(bomb.parent.as_ref().unwrap()).unwrap();
            let parent_zone = u.build_zone(parent, None);
            let d = parent_zone
                .delegations()
                .find(|d| d.child == apex)
                .expect("parent delegates the bomb");
            assert_eq!(d.ns_names.len(), 10);
            assert!(d.glue.is_empty(), "bomb referrals must be glueless");
        }
    }

    #[test]
    fn delegation_bomb_injection_is_deterministic() {
        let spec = NxnsBombSpec::new(16, 6);
        let a = small().with_delegation_bombs(spec);
        let b = small().with_delegation_bombs(spec);
        for (za, zb) in a.zones().iter().zip(b.zones()) {
            assert_eq!(za.apex, zb.apex);
            assert_eq!(za.ns, zb.ns);
        }
    }

    #[test]
    fn server_addresses_are_unique_per_generated_server() {
        let u = small();
        // ns1 addresses are allocated sequentially — never colliding with
        // each other or with root/TLD servers.
        let mut seen = std::collections::HashSet::new();
        for z in u.zones() {
            for (n, a) in &z.ns {
                if n.is_subdomain_of(&z.apex) {
                    assert!(seen.insert(*a) || u.server_assignments()[a].len() > 1);
                }
            }
        }
    }
}
