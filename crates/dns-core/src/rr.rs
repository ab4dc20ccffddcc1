//! Resource records: types, classes, RDATA and RRsets.

use crate::{Name, SimTime, Ttl};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::net::{Ipv4Addr, Ipv6Addr};

/// DNS record type codes (RFC 1035 §3.2.2 and successors).
///
/// The subset implemented here covers everything the paper's experiments
/// exercise: address records, the infrastructure `NS` record, `SOA` for zone
/// apexes, plus the common application types found in real traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RecordType {
    /// IPv4 host address (code 1).
    A,
    /// Authoritative name server (code 2) — an *infrastructure* record.
    Ns,
    /// Canonical name alias (code 5).
    Cname,
    /// Start of authority (code 6).
    Soa,
    /// Domain name pointer (code 12).
    Ptr,
    /// Mail exchange (code 15).
    Mx,
    /// Text record (code 16).
    Txt,
    /// IPv6 host address (code 28).
    Aaaa,
    /// Delegation signer (code 43) — a DNSSEC *infrastructure* record
    /// stored at the parent side of a zone cut (paper §6 notes the
    /// refresh/renewal/long-TTL techniques extend to these).
    Ds,
    /// DNSSEC zone key (code 48).
    Dnskey,
}

impl RecordType {
    /// All supported types, in code order.
    pub const ALL: [RecordType; 10] = [
        RecordType::A,
        RecordType::Ns,
        RecordType::Cname,
        RecordType::Soa,
        RecordType::Ptr,
        RecordType::Mx,
        RecordType::Txt,
        RecordType::Aaaa,
        RecordType::Ds,
        RecordType::Dnskey,
    ];

    /// The 16-bit wire code.
    pub const fn code(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::Ns => 2,
            RecordType::Cname => 5,
            RecordType::Soa => 6,
            RecordType::Ptr => 12,
            RecordType::Mx => 15,
            RecordType::Txt => 16,
            RecordType::Aaaa => 28,
            RecordType::Ds => 43,
            RecordType::Dnskey => 48,
        }
    }

    /// Inverse of [`RecordType::code`]; `None` for unsupported codes.
    pub const fn from_code(code: u16) -> Option<RecordType> {
        match code {
            1 => Some(RecordType::A),
            2 => Some(RecordType::Ns),
            5 => Some(RecordType::Cname),
            6 => Some(RecordType::Soa),
            12 => Some(RecordType::Ptr),
            15 => Some(RecordType::Mx),
            16 => Some(RecordType::Txt),
            28 => Some(RecordType::Aaaa),
            43 => Some(RecordType::Ds),
            48 => Some(RecordType::Dnskey),
            _ => None,
        }
    }

    /// Whether records of this type can be *infrastructure records* in the
    /// paper's sense (`NS`, and the address records that serve as glue).
    pub const fn is_infrastructure_candidate(self) -> bool {
        matches!(
            self,
            RecordType::Ns | RecordType::A | RecordType::Aaaa | RecordType::Ds | RecordType::Dnskey
        )
    }
}

impl fmt::Display for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RecordType::A => "A",
            RecordType::Ns => "NS",
            RecordType::Cname => "CNAME",
            RecordType::Soa => "SOA",
            RecordType::Ptr => "PTR",
            RecordType::Mx => "MX",
            RecordType::Txt => "TXT",
            RecordType::Aaaa => "AAAA",
            RecordType::Ds => "DS",
            RecordType::Dnskey => "DNSKEY",
        };
        f.write_str(s)
    }
}

/// DNS class. Only `IN` is used by the experiments; `CH` is included for
/// completeness of the wire codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum RecordClass {
    /// The Internet class (code 1).
    #[default]
    In,
    /// Chaos class (code 3).
    Ch,
}

impl RecordClass {
    /// The 16-bit wire code.
    pub const fn code(self) -> u16 {
        match self {
            RecordClass::In => 1,
            RecordClass::Ch => 3,
        }
    }

    /// Inverse of [`RecordClass::code`].
    pub const fn from_code(code: u16) -> Option<RecordClass> {
        match code {
            1 => Some(RecordClass::In),
            3 => Some(RecordClass::Ch),
            _ => None,
        }
    }
}

impl fmt::Display for RecordClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RecordClass::In => "IN",
            RecordClass::Ch => "CH",
        })
    }
}

/// Typed RDATA for the supported record types.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// Name of an authoritative server for the owner zone.
    Ns(Name),
    /// Alias target.
    Cname(Name),
    /// Start-of-authority fields.
    Soa {
        /// Primary master server name.
        mname: Name,
        /// Responsible mailbox, encoded as a name.
        rname: Name,
        /// Zone serial number.
        serial: u32,
        /// Secondary refresh interval, seconds.
        refresh: u32,
        /// Retry interval, seconds.
        retry: u32,
        /// Expiry upper bound, seconds.
        expire: u32,
        /// Negative-caching TTL, seconds.
        minimum: u32,
    },
    /// Reverse-mapping pointer target.
    Ptr(Name),
    /// Mail exchange preference and host.
    Mx {
        /// Lower is preferred.
        preference: u16,
        /// Mail server host name.
        exchange: Name,
    },
    /// Free-form text (single character-string on the wire).
    Txt(String),
    /// Delegation signer: identifies the child zone's key from the parent
    /// side. The digest is a synthetic 32-bit stand-in for the real hash
    /// (this workspace simulates DNSSEC structure, not cryptography).
    Ds {
        /// Tag of the child key this DS commits to.
        key_tag: u16,
        /// Synthetic digest of the child's public key.
        digest: u32,
    },
    /// DNSSEC zone key with a synthetic 32-bit public key.
    Dnskey {
        /// Key identifier echoed by the matching DS.
        key_tag: u16,
        /// Synthetic public key material.
        public_key: u32,
    },
}

/// The synthetic digest function connecting a [`RData::Dnskey`] to the
/// [`RData::Ds`] that commits to it (an FNV-style mix standing in for the
/// real cryptographic hash).
pub const fn synthetic_key_digest(public_key: u32) -> u32 {
    let mut h = public_key ^ 0x811C_9DC5;
    h = h.wrapping_mul(0x0100_0193);
    h ^= h >> 15;
    h = h.wrapping_mul(0x2C1B_3C6D);
    h ^= h >> 12;
    h
}

impl RData {
    /// The record type this RDATA belongs to.
    pub const fn rtype(&self) -> RecordType {
        match self {
            RData::A(_) => RecordType::A,
            RData::Aaaa(_) => RecordType::Aaaa,
            RData::Ns(_) => RecordType::Ns,
            RData::Cname(_) => RecordType::Cname,
            RData::Soa { .. } => RecordType::Soa,
            RData::Ptr(_) => RecordType::Ptr,
            RData::Mx { .. } => RecordType::Mx,
            RData::Txt(_) => RecordType::Txt,
            RData::Ds { .. } => RecordType::Ds,
            RData::Dnskey { .. } => RecordType::Dnskey,
        }
    }

    /// The target name carried by name-bearing RDATA (`NS`, `CNAME`, `PTR`,
    /// `MX`); `None` for address and text data.
    pub fn target_name(&self) -> Option<&Name> {
        match self {
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => Some(n),
            RData::Mx { exchange, .. } => Some(exchange),
            _ => None,
        }
    }
}

impl fmt::Display for RData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RData::A(a) => write!(f, "{a}"),
            RData::Aaaa(a) => write!(f, "{a}"),
            RData::Ns(n) => write!(f, "{n}"),
            RData::Cname(n) => write!(f, "{n}"),
            RData::Soa {
                mname,
                rname,
                serial,
                refresh,
                retry,
                expire,
                minimum,
            } => write!(
                f,
                "{mname} {rname} {serial} {refresh} {retry} {expire} {minimum}"
            ),
            RData::Ptr(n) => write!(f, "{n}"),
            RData::Mx {
                preference,
                exchange,
            } => write!(f, "{preference} {exchange}"),
            RData::Txt(s) => write!(f, "{s:?}"),
            RData::Ds { key_tag, digest } => write!(f, "{key_tag} {digest:08x}"),
            RData::Dnskey {
                key_tag,
                public_key,
            } => write!(f, "{key_tag} {public_key:08x}"),
        }
    }
}

/// A single resource record: owner name, class, TTL and typed RDATA.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Record {
    name: Name,
    class: RecordClass,
    ttl: Ttl,
    rdata: RData,
}

impl Record {
    /// Creates an `IN`-class record.
    pub fn new(name: Name, ttl: Ttl, rdata: RData) -> Self {
        Record {
            name,
            class: RecordClass::In,
            ttl,
            rdata,
        }
    }

    /// Creates a record with an explicit class.
    pub fn with_class(name: Name, class: RecordClass, ttl: Ttl, rdata: RData) -> Self {
        Record {
            name,
            class,
            ttl,
            rdata,
        }
    }

    /// Owner name.
    pub fn name(&self) -> &Name {
        &self.name
    }

    /// Record class.
    pub fn class(&self) -> RecordClass {
        self.class
    }

    /// Time to live.
    pub fn ttl(&self) -> Ttl {
        self.ttl
    }

    /// Replaces the TTL, returning the modified record. Used by the
    /// long-TTL scheme when overriding infrastructure-record TTLs.
    pub fn with_ttl(mut self, ttl: Ttl) -> Self {
        self.ttl = ttl;
        self
    }

    /// Typed RDATA.
    pub fn rdata(&self) -> &RData {
        &self.rdata
    }

    /// Record type, derived from the RDATA.
    pub fn rtype(&self) -> RecordType {
        self.rdata.rtype()
    }

    /// Cache key for this record's RRset.
    pub fn key(&self) -> RrKey {
        RrKey {
            name: self.name.clone(),
            rtype: self.rtype(),
        }
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {} {}",
            self.name,
            self.ttl,
            self.class,
            self.rtype(),
            self.rdata
        )
    }
}

/// Identity of an RRset: owner name plus record type (class is implicitly
/// `IN` throughout the experiments).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RrKey {
    /// Owner name.
    pub name: Name,
    /// Record type.
    pub rtype: RecordType,
}

impl RrKey {
    /// Creates a key.
    pub fn new(name: Name, rtype: RecordType) -> Self {
        RrKey { name, rtype }
    }
}

/// Written out (rather than derived) so it provably matches the
/// `dyn RrKeyView` hash below — the contract `Borrow`-based map probing
/// relies on.
impl Hash for RrKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.name.hash(state);
        self.rtype.hash(state);
    }
}

/// Borrowed view of an RRset key, so caches can probe
/// `HashMap<RrKey, _>` / `BTreeMap<RrKey, _>` by `(&Name, RecordType)`
/// without cloning the name into a throwaway [`RrKey`]:
///
/// ```rust
/// # fn main() -> Result<(), dns_core::DnsError> {
/// use dns_core::{Name, RecordType, RrKey, RrKeyView};
/// use std::collections::HashMap;
///
/// let name: Name = "www.ucla.edu".parse()?;
/// let mut map = HashMap::new();
/// map.insert(RrKey::new(name.clone(), RecordType::A), 7u32);
/// // Lookup without constructing an RrKey:
/// let hit = map.get(&(&name, RecordType::A) as &dyn RrKeyView);
/// assert_eq!(hit, Some(&7));
/// # Ok(())
/// # }
/// ```
///
/// `Hash`/`Eq`/`Ord` on `dyn RrKeyView` are defined on `(name, rtype)` in
/// that order, identical to `RrKey`'s own implementations, which makes the
/// `Borrow<dyn RrKeyView> for RrKey` impl lawful.
pub trait RrKeyView {
    /// Owner name.
    fn name(&self) -> &Name;
    /// Record type.
    fn rtype(&self) -> RecordType;
}

impl RrKeyView for RrKey {
    fn name(&self) -> &Name {
        &self.name
    }
    fn rtype(&self) -> RecordType {
        self.rtype
    }
}

impl RrKeyView for (&Name, RecordType) {
    fn name(&self) -> &Name {
        self.0
    }
    fn rtype(&self) -> RecordType {
        self.1
    }
}

impl Hash for dyn RrKeyView + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.name().hash(state);
        self.rtype().hash(state);
    }
}

impl PartialEq for dyn RrKeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.rtype() == other.rtype() && self.name() == other.name()
    }
}

impl Eq for dyn RrKeyView + '_ {}

impl PartialOrd for dyn RrKeyView + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn RrKeyView + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        self.name()
            .cmp(other.name())
            .then_with(|| self.rtype().cmp(&other.rtype()))
    }
}

impl<'a> Borrow<dyn RrKeyView + 'a> for RrKey {
    fn borrow(&self) -> &(dyn RrKeyView + 'a) {
        self
    }
}

impl fmt::Display for RrKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.name, self.rtype)
    }
}

/// A set of records sharing owner name and type (RFC 2181 §5), the unit of
/// caching.
///
/// All records in the set share one TTL (per RFC 2181 §5.2 the TTLs of an
/// RRset must match; we normalise to the minimum on construction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RrSet {
    key: RrKey,
    ttl: Ttl,
    rdatas: Vec<RData>,
}

impl RrSet {
    /// Builds an RRset from one or more records of identical name/type.
    ///
    /// Records whose name or type differ from the first record are ignored;
    /// the TTL is the minimum across the set.
    ///
    /// Returns `None` when `records` is empty.
    pub fn from_records(records: &[Record]) -> Option<Self> {
        let first = records.first()?;
        let mut set = RrSet::new(first.key(), first.ttl(), Vec::new());
        for r in records {
            set.merge(r);
        }
        Some(set)
    }

    /// Folds one more member into the set: the TTL drops to the record's
    /// if lower, and its RDATA is appended unless already present. A
    /// record of another name or type is ignored.
    pub fn merge(&mut self, record: &Record) {
        if record.rtype() != self.key.rtype || record.name() != &self.key.name {
            return;
        }
        self.ttl = self.ttl.min(record.ttl());
        if !self.rdatas.contains(record.rdata()) {
            self.rdatas.push(record.rdata().clone());
        }
    }

    /// Creates an RRset directly.
    pub fn new(key: RrKey, ttl: Ttl, rdatas: Vec<RData>) -> Self {
        RrSet { key, ttl, rdatas }
    }

    /// Identity of the set.
    pub fn key(&self) -> &RrKey {
        &self.key
    }

    /// Owner name.
    pub fn name(&self) -> &Name {
        &self.key.name
    }

    /// Record type.
    pub fn rtype(&self) -> RecordType {
        self.key.rtype
    }

    /// Shared TTL.
    pub fn ttl(&self) -> Ttl {
        self.ttl
    }

    /// Replaces the TTL.
    pub fn with_ttl(mut self, ttl: Ttl) -> Self {
        self.ttl = ttl;
        self
    }

    /// The RDATA values.
    pub fn rdatas(&self) -> &[RData] {
        &self.rdatas
    }

    /// Number of records in the set.
    pub fn len(&self) -> usize {
        self.rdatas.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.rdatas.is_empty()
    }

    /// Expands back into individual [`Record`]s.
    pub fn to_records(&self) -> Vec<Record> {
        self.records().collect()
    }

    /// The set's individual [`Record`]s, built on demand (no intermediate
    /// `Vec`, for extending a message section in place).
    pub fn records(&self) -> impl ExactSizeIterator<Item = Record> + '_ {
        self.rdatas
            .iter()
            .map(|rd| Record::new(self.key.name.clone(), self.ttl, rd.clone()))
    }

    /// Absolute expiry for a copy received at `at`.
    pub fn expires_at(&self, at: SimTime) -> SimTime {
        self.ttl.expires_at(at)
    }
}

impl fmt::Display for RrSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} x{}", self.key, self.ttl, self.rdatas.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn type_codes_roundtrip() {
        for t in RecordType::ALL {
            assert_eq!(RecordType::from_code(t.code()), Some(t));
        }
        assert_eq!(RecordType::from_code(999), None);
    }

    #[test]
    fn class_codes_roundtrip() {
        for c in [RecordClass::In, RecordClass::Ch] {
            assert_eq!(RecordClass::from_code(c.code()), Some(c));
        }
        assert_eq!(RecordClass::from_code(0), None);
    }

    #[test]
    fn rdata_reports_its_type() {
        assert_eq!(RData::A(Ipv4Addr::LOCALHOST).rtype(), RecordType::A);
        assert_eq!(RData::Ns(name("ns1.edu")).rtype(), RecordType::Ns);
        assert_eq!(
            RData::Mx {
                preference: 10,
                exchange: name("mx.example.com"),
            }
            .rtype(),
            RecordType::Mx
        );
    }

    #[test]
    fn target_name_extraction() {
        assert_eq!(
            RData::Ns(name("ns1.edu")).target_name(),
            Some(&name("ns1.edu"))
        );
        assert_eq!(RData::A(Ipv4Addr::LOCALHOST).target_name(), None);
    }

    #[test]
    fn infrastructure_candidates() {
        assert!(RecordType::Ns.is_infrastructure_candidate());
        assert!(RecordType::A.is_infrastructure_candidate());
        assert!(!RecordType::Txt.is_infrastructure_candidate());
    }

    #[test]
    fn rrset_normalises_ttl_to_minimum() {
        let nm = name("ucla.edu");
        let recs = vec![
            Record::new(
                nm.clone(),
                Ttl::from_hours(4),
                RData::Ns(name("ns1.ucla.edu")),
            ),
            Record::new(
                nm.clone(),
                Ttl::from_hours(2),
                RData::Ns(name("ns2.ucla.edu")),
            ),
        ];
        let set = RrSet::from_records(&recs).unwrap();
        assert_eq!(set.ttl(), Ttl::from_hours(2));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn rrset_dedups_and_filters_foreign_records() {
        let nm = name("ucla.edu");
        let ns = RData::Ns(name("ns1.ucla.edu"));
        let recs = vec![
            Record::new(nm.clone(), Ttl::from_hours(1), ns.clone()),
            Record::new(nm.clone(), Ttl::from_hours(1), ns.clone()),
            // Different owner: must be excluded.
            Record::new(name("mit.edu"), Ttl::from_hours(1), ns.clone()),
            // Different type: must be excluded.
            Record::new(
                nm.clone(),
                Ttl::from_hours(1),
                RData::A(Ipv4Addr::LOCALHOST),
            ),
        ];
        let set = RrSet::from_records(&recs).unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(set.rtype(), RecordType::Ns);
    }

    #[test]
    fn rrset_from_empty_is_none() {
        assert!(RrSet::from_records(&[]).is_none());
    }

    #[test]
    fn rrset_roundtrips_to_records() {
        let nm = name("ucla.edu");
        let set = RrSet::new(
            RrKey::new(nm.clone(), RecordType::Ns),
            Ttl::from_days(1),
            vec![
                RData::Ns(name("ns1.ucla.edu")),
                RData::Ns(name("ns2.ucla.edu")),
            ],
        );
        let recs = set.to_records();
        assert_eq!(recs.len(), 2);
        assert!(recs.iter().all(|r| r.name() == &nm));
        assert_eq!(RrSet::from_records(&recs).unwrap(), set);
    }

    #[test]
    fn record_display_is_zone_file_like() {
        let r = Record::new(
            name("www.ucla.edu"),
            Ttl::from_hours(4),
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        );
        assert_eq!(r.to_string(), "www.ucla.edu. 4h IN A 192.0.2.1");
    }
}
