//! Authoritative zone data: apex records, in-zone data and delegations.

use crate::name::cmp_label_bytes;
use crate::{DnsError, Name, RData, Record, RecordType, RrSet, Ttl};
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

/// A delegation point inside a zone: the child zone's NS set as stored at
/// the *parent*, plus any glue address records.
///
/// These are exactly the paper's *infrastructure resource records* as seen
/// from the parent side of a zone cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delegation {
    /// Apex of the child zone.
    pub child: Name,
    /// Names of the child's authoritative servers.
    pub ns_names: Vec<Name>,
    /// TTL of the NS RRset as published by the parent.
    pub ns_ttl: Ttl,
    /// Glue: address records for in-bailiwick server names.
    pub glue: Vec<Record>,
    /// DS records for a signed child (parent-side DNSSEC infrastructure
    /// records, paper §6); empty for unsigned delegations.
    pub ds: Vec<Record>,
}

impl Delegation {
    /// An unsigned delegation (no DS records).
    pub fn unsigned(child: Name, ns_names: Vec<Name>, ns_ttl: Ttl, glue: Vec<Record>) -> Self {
        Delegation {
            child,
            ns_names,
            ns_ttl,
            glue,
            ds: Vec::new(),
        }
    }

    /// The NS records this delegation publishes, one per server name.
    pub fn ns_records(&self) -> impl ExactSizeIterator<Item = Record> + '_ {
        self.ns_names
            .iter()
            .map(|ns| Record::new(self.child.clone(), self.ns_ttl, RData::Ns(ns.clone())))
    }
}

/// One authoritative zone: an apex, authoritative records, and delegations
/// to child zones.
///
/// Use [`ZoneBuilder`] to construct zones; it validates apex consistency and
/// derives delegation glue.
///
/// ```rust
/// # fn main() -> Result<(), dns_core::DnsError> {
/// use dns_core::{Name, ZoneBuilder, Ttl};
/// use std::net::Ipv4Addr;
///
/// let zone = ZoneBuilder::new("ucla.edu".parse()?)
///     .ns("ns1.ucla.edu".parse()?, Ipv4Addr::new(192, 0, 2, 1), Ttl::from_days(1))
///     .a("www.ucla.edu".parse()?, Ipv4Addr::new(192, 0, 2, 80), Ttl::from_hours(4))
///     .build()?;
/// assert_eq!(zone.apex().to_string(), "ucla.edu.");
/// assert_eq!(zone.ns_names().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Zone {
    apex: Name,
    /// Apex NS names (this zone's own infrastructure records).
    ns_names: Vec<Name>,
    /// TTL for the apex NS set and its glue.
    infra_ttl: Ttl,
    /// All authoritative RRsets (including apex NS and server A records),
    /// sorted by owner name, then type. A zone is built once and then
    /// only read, so sorted vectors searched by bisection hold its data.
    records: Vec<RrSet>,
    /// Delegations to children, sorted by child apex.
    delegations: Vec<Delegation>,
    /// Owner names of the delegations' glue records, with how many glue
    /// records each owns, so [`Zone::name_exists`] never scans the glue.
    glue_names: HashMap<Name, usize>,
}

impl Zone {
    /// The zone apex name.
    pub fn apex(&self) -> &Name {
        &self.apex
    }

    /// Names of this zone's authoritative servers.
    pub fn ns_names(&self) -> &[Name] {
        &self.ns_names
    }

    /// TTL of the zone's own infrastructure records.
    pub fn infra_ttl(&self) -> Ttl {
        self.infra_ttl
    }

    /// Overrides the infrastructure TTL — this is the *long-TTL* knob the
    /// paper gives zone operators. Only the apex NS set and the glue for
    /// this zone's servers are affected; data records keep their TTLs.
    pub fn set_infra_ttl(&mut self, ttl: Ttl) {
        self.infra_ttl = ttl;
        let infra = std::iter::once((&self.apex, RecordType::Ns)).chain(
            self.ns_names
                .iter()
                .flat_map(|ns| [(ns, RecordType::A), (ns, RecordType::Aaaa)]),
        );
        for (name, rtype) in infra {
            if let Ok(i) = rrset_index(&self.records, name, rtype) {
                self.records[i] = self.records[i].clone().with_ttl(ttl);
            }
        }
    }

    /// Looks up an authoritative RRset.
    pub fn lookup(&self, name: &Name, rtype: RecordType) -> Option<&RrSet> {
        let i = rrset_index(&self.records, name, rtype).ok()?;
        Some(&self.records[i])
    }

    /// Whether any RRset exists at `name`: authoritative data, a
    /// delegation cut or delegation glue.
    pub fn name_exists(&self, name: &Name) -> bool {
        // Sets order by name first: the first set not below `name` is
        // owned by `name` iff any is.
        let first = self.records.partition_point(|set| set.name() < name);
        self.records
            .get(first)
            .is_some_and(|set| set.name() == name)
            || self.delegation(name).is_some()
            || self.glue_names.contains_key(name)
    }

    /// The deepest delegation whose child apex is `name` or an ancestor of
    /// it — i.e. the zone cut a query for `name` must be referred through.
    pub fn delegation_for(&self, name: &Name) -> Option<&Delegation> {
        if self.delegations.is_empty() || !name.is_proper_subdomain_of(&self.apex) {
            return None;
        }
        // Walk from the name itself down to (but excluding) the apex,
        // probing each suffix as raw label bytes: no ancestor `Name` (and
        // so no reference-count bump) is built.
        let mut suffix = name.as_suffix_bytes();
        for _ in self.apex.label_count()..name.label_count() {
            let probe = self
                .delegations
                .binary_search_by(|d| cmp_label_bytes(d.child.as_suffix_bytes(), suffix));
            if let Ok(i) = probe {
                return Some(&self.delegations[i]);
            }
            suffix = &suffix[1 + usize::from(suffix[0])..];
        }
        None
    }

    /// Delegation entry for an exact child apex.
    pub fn delegation(&self, child: &Name) -> Option<&Delegation> {
        let i = self.delegation_index(child).ok()?;
        Some(&self.delegations[i])
    }

    fn delegation_index(&self, child: &Name) -> Result<usize, usize> {
        self.delegations.binary_search_by(|d| d.child.cmp(child))
    }

    /// All delegations, ordered by child apex.
    pub fn delegations(&self) -> impl Iterator<Item = &Delegation> {
        self.delegations.iter()
    }

    /// All authoritative RRsets, ordered by owner name, then type.
    pub fn rrsets(&self) -> impl Iterator<Item = &RrSet> {
        self.records.iter()
    }

    /// Whether `name` is inside this zone's authority (at or below the apex
    /// and not beyond a delegation cut).
    pub fn is_authoritative_for(&self, name: &Name) -> bool {
        name.is_subdomain_of(&self.apex) && self.delegation_for(name).is_none()
    }

    /// Renders the zone in RFC 1035 master-file style: an `$ORIGIN`
    /// line, the authoritative RRsets, then delegation NS/DS/glue records
    /// grouped per child (commented for readability).
    ///
    /// ```rust
    /// # fn main() -> Result<(), dns_core::DnsError> {
    /// use dns_core::{Ttl, ZoneBuilder};
    /// use std::net::Ipv4Addr;
    /// let zone = ZoneBuilder::new("example.com".parse()?)
    ///     .ns("ns1.example.com".parse()?, Ipv4Addr::new(192, 0, 2, 1), Ttl::from_days(1))
    ///     .build()?;
    /// let text = zone.to_zone_file();
    /// assert!(text.starts_with("$ORIGIN example.com."));
    /// assert!(text.contains("IN NS ns1.example.com."));
    /// # Ok(())
    /// # }
    /// ```
    pub fn to_zone_file(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "$ORIGIN {}", self.apex);
        for set in &self.records {
            for rec in set.records() {
                let _ = writeln!(out, "{rec}");
            }
        }
        for d in &self.delegations {
            let _ = writeln!(out, "; delegation: {}", d.child);
            for rec in d.ns_records() {
                let _ = writeln!(out, "{rec}");
            }
            for rec in &d.ds {
                let _ = writeln!(out, "{rec}");
            }
            for rec in &d.glue {
                let _ = writeln!(out, "{rec}");
            }
        }
        out
    }

    /// Adds or replaces a delegation after construction. Used by the
    /// namespace generator when wiring up a synthetic tree.
    pub fn add_delegation(&mut self, delegation: Delegation) -> Result<(), DnsError> {
        check_below_apex(&self.apex, &delegation)?;
        for glue in &delegation.glue {
            *self.glue_names.entry(glue.name().clone()).or_default() += 1;
        }
        let replaced = match self.delegation_index(&delegation.child) {
            Ok(i) => Some(std::mem::replace(&mut self.delegations[i], delegation)),
            Err(i) => {
                self.delegations.insert(i, delegation);
                None
            }
        };
        for glue in replaced.iter().flat_map(|d| &d.glue) {
            if let Some(count) = self.glue_names.get_mut(glue.name()) {
                *count -= 1;
                if *count == 0 {
                    self.glue_names.remove(glue.name());
                }
            }
        }
        Ok(())
    }
}

fn check_below_apex(apex: &Name, delegation: &Delegation) -> Result<(), DnsError> {
    if delegation.child.is_proper_subdomain_of(apex) {
        return Ok(());
    }
    Err(DnsError::InvalidZone(format!(
        "delegation {} is not below apex {}",
        delegation.child, apex
    )))
}

/// Where the `(name, rtype)` set sits in `records` (sorted as
/// [`Zone::rrsets`] yields them), or where it would be inserted.
fn rrset_index(records: &[RrSet], name: &Name, rtype: RecordType) -> Result<usize, usize> {
    records.binary_search_by(|set| set.name().cmp(name).then(set.rtype().cmp(&rtype)))
}

impl fmt::Display for Zone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "zone {} ({} rrsets, {} delegations, infra ttl {})",
            self.apex,
            self.records.len(),
            self.delegations.len(),
            self.infra_ttl
        )
    }
}

/// Incremental builder for [`Zone`].
#[derive(Debug, Clone)]
pub struct ZoneBuilder {
    apex: Name,
    ns: Vec<(Name, Ipv4Addr)>,
    infra_ttl: Ttl,
    records: Vec<Record>,
    delegations: Vec<Delegation>,
    dnskey: Option<(u16, u32)>,
}

impl ZoneBuilder {
    /// Starts a zone at `apex` with a default one-day infrastructure TTL.
    pub fn new(apex: Name) -> Self {
        ZoneBuilder {
            apex,
            ns: Vec::new(),
            infra_ttl: Ttl::from_days(1),
            records: Vec::new(),
            delegations: Vec::new(),
            dnskey: None,
        }
    }

    /// Signs the zone with a synthetic DNSSEC key: publishes a DNSKEY at
    /// the apex (with the infrastructure TTL).
    pub fn dnskey(mut self, key_tag: u16, public_key: u32) -> Self {
        self.dnskey = Some((key_tag, public_key));
        self
    }

    /// Adds an authoritative server (name + address). The address record is
    /// published when the server name is in-zone.
    pub fn ns(mut self, name: Name, addr: Ipv4Addr, ttl: Ttl) -> Self {
        self.infra_ttl = ttl;
        self.ns.push((name, addr));
        self
    }

    /// Sets the infrastructure TTL explicitly.
    pub fn infra_ttl(mut self, ttl: Ttl) -> Self {
        self.infra_ttl = ttl;
        self
    }

    /// Adds an `A` record.
    pub fn a(mut self, name: Name, addr: Ipv4Addr, ttl: Ttl) -> Self {
        self.records.push(Record::new(name, ttl, RData::A(addr)));
        self
    }

    /// Adds an arbitrary record.
    pub fn record(mut self, record: Record) -> Self {
        self.records.push(record);
        self
    }

    /// Adds a delegation to a child zone.
    pub fn delegate(mut self, delegation: Delegation) -> Self {
        self.delegations.push(delegation);
        self
    }

    /// Finalises the zone.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::InvalidZone`] when no NS server was provided, a
    /// record owner lies outside the apex, or a delegation is not below the
    /// apex.
    pub fn build(self) -> Result<Zone, DnsError> {
        if self.ns.is_empty() {
            return Err(DnsError::InvalidZone(format!(
                "zone {} has no name-servers",
                self.apex
            )));
        }
        // Apex NS set plus in-zone glue, the DNSKEY, then the data.
        let mut all = Vec::with_capacity(2 * self.ns.len() + 1 + self.records.len());
        for (ns_name, addr) in &self.ns {
            all.push(Record::new(
                self.apex.clone(),
                self.infra_ttl,
                RData::Ns(ns_name.clone()),
            ));
            if ns_name.is_subdomain_of(&self.apex) {
                all.push(Record::new(
                    ns_name.clone(),
                    self.infra_ttl,
                    RData::A(*addr),
                ));
            }
        }
        if let Some((key_tag, public_key)) = self.dnskey {
            all.push(Record::new(
                self.apex.clone(),
                self.infra_ttl,
                RData::Dnskey {
                    key_tag,
                    public_key,
                },
            ));
        }
        for rec in self.records {
            if !rec.name().is_subdomain_of(&self.apex) {
                return Err(DnsError::InvalidZone(format!(
                    "record owner {} outside zone {}",
                    rec.name(),
                    self.apex
                )));
            }
            all.push(rec);
        }

        // One stable sort, then fold each run of equal keys into a set:
        // members keep the order they were added in. A built zone is
        // almost only read, so every vector is sized to its contents.
        all.sort_by(|a, b| a.name().cmp(b.name()).then(a.rtype().cmp(&b.rtype())));
        let mut records: Vec<RrSet> = all
            .chunk_by(|a, b| a.name() == b.name() && a.rtype() == b.rtype())
            .map(|run| RrSet::from_records(run).expect("chunks are non-empty"))
            .collect();
        records.shrink_to_fit();

        let mut delegations = self.delegations;
        for d in &delegations {
            check_below_apex(&self.apex, d)?;
        }
        // Sorted once (stable), and a later delegation to the same child
        // replaces an earlier one, as `Zone::add_delegation` does.
        delegations.sort_by(|a, b| a.child.cmp(&b.child));
        delegations.dedup_by(|later, kept| {
            let same = later.child == kept.child;
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
        delegations.shrink_to_fit();
        for d in &mut delegations {
            d.glue.shrink_to_fit();
        }
        let mut glue_names: HashMap<Name, usize> = HashMap::new();
        for glue in delegations.iter().flat_map(|d| &d.glue) {
            *glue_names.entry(glue.name().clone()).or_default() += 1;
        }

        Ok(Zone {
            apex: self.apex,
            ns_names: self.ns.iter().map(|(n, _)| n.clone()).collect(),
            infra_ttl: self.infra_ttl,
            records,
            delegations,
            glue_names,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RrKey;
    use std::collections::BTreeMap;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(192, 0, 2, last)
    }

    fn ucla() -> Zone {
        ZoneBuilder::new(name("ucla.edu"))
            .ns(name("ns1.ucla.edu"), ip(1), Ttl::from_days(1))
            .ns(name("ns2.ucla.edu"), ip(2), Ttl::from_days(1))
            .a(name("www.ucla.edu"), ip(80), Ttl::from_hours(4))
            .delegate(Delegation::unsigned(
                name("cs.ucla.edu"),
                vec![name("ns.cs.ucla.edu")],
                Ttl::from_hours(12),
                vec![Record::new(
                    name("ns.cs.ucla.edu"),
                    Ttl::from_hours(12),
                    RData::A(ip(53)),
                )],
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_publishes_apex_ns_and_glue() {
        let z = ucla();
        let ns = z.lookup(&name("ucla.edu"), RecordType::Ns).unwrap();
        assert_eq!(ns.len(), 2);
        assert_eq!(ns.ttl(), Ttl::from_days(1));
        let glue = z.lookup(&name("ns1.ucla.edu"), RecordType::A).unwrap();
        assert_eq!(glue.rdatas(), &[RData::A(ip(1))]);
    }

    #[test]
    fn builder_requires_name_servers() {
        let err = ZoneBuilder::new(name("empty.edu")).build().unwrap_err();
        assert!(matches!(err, DnsError::InvalidZone(_)));
    }

    #[test]
    fn builder_rejects_out_of_zone_records() {
        let err = ZoneBuilder::new(name("ucla.edu"))
            .ns(name("ns1.ucla.edu"), ip(1), Ttl::from_days(1))
            .a(name("www.mit.edu"), ip(9), Ttl::from_hours(1))
            .build()
            .unwrap_err();
        assert!(matches!(err, DnsError::InvalidZone(_)));
    }

    #[test]
    fn delegation_lookup_walks_ancestors() {
        let z = ucla();
        // Query deep below the cut still finds the cs.ucla.edu delegation.
        let d = z.delegation_for(&name("host.lab.cs.ucla.edu")).unwrap();
        assert_eq!(d.child, name("cs.ucla.edu"));
        // Names not under any cut have no delegation.
        assert!(z.delegation_for(&name("www.ucla.edu")).is_none());
        // The apex itself is never delegated.
        assert!(z.delegation_for(&name("ucla.edu")).is_none());
    }

    #[test]
    fn authority_respects_zone_cuts() {
        let z = ucla();
        assert!(z.is_authoritative_for(&name("www.ucla.edu")));
        assert!(z.is_authoritative_for(&name("ucla.edu")));
        assert!(!z.is_authoritative_for(&name("www.cs.ucla.edu")));
        assert!(!z.is_authoritative_for(&name("www.mit.edu")));
    }

    #[test]
    fn set_infra_ttl_rewrites_only_infrastructure() {
        let mut z = ucla();
        z.set_infra_ttl(Ttl::from_days(7));
        assert_eq!(
            z.lookup(&name("ucla.edu"), RecordType::Ns).unwrap().ttl(),
            Ttl::from_days(7)
        );
        assert_eq!(
            z.lookup(&name("ns1.ucla.edu"), RecordType::A)
                .unwrap()
                .ttl(),
            Ttl::from_days(7)
        );
        // Data record untouched.
        assert_eq!(
            z.lookup(&name("www.ucla.edu"), RecordType::A)
                .unwrap()
                .ttl(),
            Ttl::from_hours(4)
        );
    }

    #[test]
    fn add_delegation_validates_subtree() {
        let mut z = ucla();
        let err = z
            .add_delegation(Delegation::unsigned(
                name("mit.edu"),
                vec![name("ns.mit.edu")],
                Ttl::from_days(1),
                vec![],
            ))
            .unwrap_err();
        assert!(matches!(err, DnsError::InvalidZone(_)));
    }

    #[test]
    fn delegation_ns_records() {
        let z = ucla();
        let d = z.delegation(&name("cs.ucla.edu")).unwrap();
        let records: Vec<Record> = d.ns_records().collect();
        assert_eq!(
            records,
            [Record::new(
                name("cs.ucla.edu"),
                Ttl::from_hours(12),
                RData::Ns(name("ns.cs.ucla.edu")),
            )]
        );
    }

    #[test]
    fn zone_file_rendering_is_complete() {
        let z = ucla();
        let text = z.to_zone_file();
        assert!(text.starts_with("$ORIGIN ucla.edu."));
        // Apex NS, glue, data and the delegation all present.
        assert!(text.contains("ucla.edu. 1d IN NS ns1.ucla.edu."));
        assert!(text.contains("ns1.ucla.edu. 1d IN A 192.0.2.1"));
        assert!(text.contains("www.ucla.edu. 4h IN A 192.0.2.80"));
        assert!(text.contains("; delegation: cs.ucla.edu."));
        assert!(text.contains("cs.ucla.edu. 12h IN NS ns.cs.ucla.edu."));
        assert!(text.contains("ns.cs.ucla.edu. 12h IN A 192.0.2.53"));
    }

    #[test]
    fn name_exists_sees_apex_data_and_glue() {
        let z = ucla();
        assert!(z.name_exists(&name("www.ucla.edu")));
        assert!(z.name_exists(&name("ucla.edu")));
        assert!(z.name_exists(&name("ns.cs.ucla.edu"))); // delegation glue
        assert!(!z.name_exists(&name("nope.ucla.edu")));
    }

    /// Names below `gen.test`; a small pool so generated records,
    /// delegations and glue collide on the same owners often.
    fn pool(idx: usize) -> Name {
        const LABELS: [&str; 6] = ["a", "b", "ns", "www", "c.a", "ns.b"];
        match idx {
            0 => name("gen.test"),
            i => name(&format!("{}.gen.test", LABELS[(i - 1) % LABELS.len()])),
        }
    }

    /// What a zone should hold, kept in ordered maps: the storage `Zone`
    /// used before its sorted vectors, and the semantics they must keep.
    struct Model {
        apex: Name,
        records: BTreeMap<RrKey, RrSet>,
        delegations: BTreeMap<Name, Delegation>,
    }

    impl Model {
        fn add(&mut self, rec: Record) {
            match self.records.get_mut(&rec.key()) {
                Some(set) => set.merge(&rec),
                None => {
                    let set = RrSet::new(rec.key(), rec.ttl(), vec![rec.rdata().clone()]);
                    self.records.insert(rec.key(), set);
                }
            }
        }

        fn set_ttl(&mut self, owner: &Name, rtype: RecordType, ttl: Ttl) {
            let key = RrKey::new(owner.clone(), rtype);
            if let Some(set) = self.records.remove(&key) {
                self.records.insert(key, set.with_ttl(ttl));
            }
        }

        /// A full scan of every record key, delegation apex and glue owner.
        fn name_exists(&self, n: &Name) -> bool {
            self.records.keys().any(|k| &k.name == n)
                || self
                    .delegations
                    .values()
                    .any(|d| d.child == *n || d.glue.iter().any(|g| g.name() == n))
        }

        fn delegation_for(&self, n: &Name) -> Option<&Delegation> {
            n.ancestors()
                .filter(|a| a.is_proper_subdomain_of(&self.apex))
                .find_map(|a| self.delegations.get(&a))
        }

        fn to_zone_file(&self) -> String {
            use std::fmt::Write as _;
            let mut out = format!("$ORIGIN {}\n", self.apex);
            for rec in self.records.values().flat_map(RrSet::records) {
                let _ = writeln!(out, "{rec}");
            }
            for d in self.delegations.values() {
                let _ = writeln!(out, "; delegation: {}", d.child);
                for rec in d.ns_records().chain(d.ds.iter().cloned()) {
                    let _ = writeln!(out, "{rec}");
                }
                for rec in &d.glue {
                    let _ = writeln!(out, "{rec}");
                }
            }
            out
        }
    }

    type RecordSpec = (usize, usize, u8);
    type DelegationSpec = (usize, Vec<usize>, u8);

    fn gen_record((owner, kind, hours): RecordSpec) -> Record {
        let rdata = match kind {
            0 => RData::A(ip(owner as u8)),
            1 => RData::A(ip(9)),
            2 => RData::Txt(format!("t{owner}")),
            _ => RData::Mx {
                preference: 10,
                exchange: pool(4),
            },
        };
        Record::new(pool(owner), Ttl::from_hours(u32::from(hours)), rdata)
    }

    fn gen_delegation((child, glue, hours): DelegationSpec) -> Delegation {
        let ttl = Ttl::from_hours(u32::from(hours));
        let glue = glue
            .into_iter()
            .map(|g| Record::new(pool(g), ttl, RData::A(ip(g as u8))))
            .collect();
        Delegation::unsigned(pool(child), vec![pool(3)], ttl, glue)
    }

    /// Builds the same zone both ways: `built` delegations go through the
    /// builder, `added` ones through `add_delegation` afterwards (each
    /// list may name one child several times; the later one wins).
    fn zone_and_model(
        records: Vec<RecordSpec>,
        built: Vec<DelegationSpec>,
        added: Vec<DelegationSpec>,
        infra_ttl: Option<u8>,
    ) -> (Zone, Model) {
        let mut model = Model {
            apex: pool(0),
            records: BTreeMap::new(),
            delegations: BTreeMap::new(),
        };
        let infra = Ttl::from_days(1);
        model.add(Record::new(pool(0), infra, RData::Ns(pool(3))));
        model.add(Record::new(pool(3), infra, RData::A(ip(1))));
        let mut builder = ZoneBuilder::new(pool(0)).ns(pool(3), ip(1), infra);
        for rec in records.into_iter().map(gen_record) {
            model.add(rec.clone());
            builder = builder.record(rec);
        }
        for d in built.into_iter().map(gen_delegation) {
            model.delegations.insert(d.child.clone(), d.clone());
            builder = builder.delegate(d);
        }
        let mut z = builder.build().unwrap();
        for d in added.into_iter().map(gen_delegation) {
            model.delegations.insert(d.child.clone(), d.clone());
            z.add_delegation(d).unwrap();
        }
        if let Some(hours) = infra_ttl {
            let ttl = Ttl::from_hours(u32::from(hours));
            z.set_infra_ttl(ttl);
            model.set_ttl(&pool(0), RecordType::Ns, ttl);
            model.set_ttl(&pool(3), RecordType::A, ttl);
        }
        (z, model)
    }

    proptest::proptest! {
        #[test]
        fn sorted_zone_matches_btreemap_model(
            records in proptest::collection::vec((0usize..7, 0usize..4, 1u8..4), 0..10),
            built in proptest::collection::vec(
                (1usize..7, proptest::collection::vec(0usize..7, 0..3), 1u8..4),
                0..5,
            ),
            added in proptest::collection::vec(
                (1usize..7, proptest::collection::vec(0usize..7, 0..3), 1u8..4),
                0..4,
            ),
            infra_ttl in proptest::collection::vec(1u8..48, 0..2),
        ) {
            let (z, model) = zone_and_model(records, built, added, infra_ttl.first().copied());
            let probes = (0..7)
                .map(pool)
                .chain(
                    ["x.c.a.gen.test", "y.ns.b.gen.test", "zz.gen.test", "gen.other", "test"]
                        .map(name),
                );
            for n in probes {
                proptest::prop_assert_eq!(z.name_exists(&n), model.name_exists(&n));
                proptest::prop_assert_eq!(z.delegation_for(&n), model.delegation_for(&n));
                proptest::prop_assert_eq!(z.delegation(&n), model.delegations.get(&n));
                for rtype in RecordType::ALL {
                    let key = RrKey::new(n.clone(), rtype);
                    proptest::prop_assert_eq!(z.lookup(&n, rtype), model.records.get(&key));
                }
            }
            let sets: Vec<&RrSet> = z.rrsets().collect();
            let model_sets: Vec<&RrSet> = model.records.values().collect();
            proptest::prop_assert_eq!(sets, model_sets);
            let delegations: Vec<&Delegation> = z.delegations().collect();
            let model_delegations: Vec<&Delegation> = model.delegations.values().collect();
            proptest::prop_assert_eq!(delegations, model_delegations);
            proptest::prop_assert_eq!(z.to_zone_file(), model.to_zone_file());
        }
    }
}
