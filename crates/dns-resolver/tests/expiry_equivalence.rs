//! Randomized equivalence between the amortized expiry bookkeeping (lazy
//! min-heaps + maintained counters) and a naive full-scan model.
//!
//! Both caches promise that, at any monotone sequence of observation times,
//! `fresh_*` counts equal what a retain-scan over all live entries would
//! report. The heap discipline (lazy-deleted pairs, re-inserts with equal or
//! different expiries, tombstones that must survive uncounting) is exactly
//! the kind of bookkeeping that rots silently, so we drive randomized
//! insert/expire schedules against a model that stores nothing but
//! `(expiry, record-count)` pairs and scans on every probe.

use dns_core::{Name, RData, Record, RecordType, RrSet, SimTime, Ttl};
use dns_resolver::{Credibility, InfraCache, InfraSource, NegativeKind, RecordCache};
use proptest::prelude::*;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// A small pool so random ops collide on the same keys often.
fn pool_name(idx: usize) -> Name {
    format!("z{idx}.example").parse().unwrap()
}

fn a_set(name: &Name, records: usize, ttl: Ttl) -> RrSet {
    let recs: Vec<Record> = (0..records)
        .map(|i| {
            Record::new(
                name.clone(),
                ttl,
                RData::A(Ipv4Addr::new(192, 0, 2, i as u8 + 1)),
            )
        })
        .collect();
    RrSet::from_records(&recs).unwrap()
}

/// One step of a randomized schedule. Times advance by `dt` before the op.
#[derive(Debug, Clone)]
enum RecordOp {
    Insert {
        name: usize,
        records: usize,
        ttl_secs: u32,
        credibility: Credibility,
    },
    InsertNegative {
        name: usize,
        ttl_secs: u32,
    },
    /// Re-insert `name` (if fresh) with half its remaining lifetime, so
    /// its expiry moves *earlier* and the cache must push a second pair.
    Shorten {
        name: usize,
        records: usize,
    },
    /// Purge, then compare every counter against the scan model.
    Sample,
}

fn arb_credibility() -> impl Strategy<Value = Credibility> {
    prop_oneof![
        Just(Credibility::Additional),
        Just(Credibility::NonAuthAuthority),
        Just(Credibility::AuthAuthority),
        Just(Credibility::AuthAnswer),
    ]
}

fn arb_record_op() -> impl Strategy<Value = (u32, RecordOp)> {
    let op = prop_oneof![
        (0usize..8, 1usize..=3, 0u32..90, arb_credibility()).prop_map(
            |(name, records, ttl_secs, credibility)| RecordOp::Insert {
                name,
                records,
                ttl_secs,
                credibility,
            }
        ),
        (0usize..8, 0u32..90)
            .prop_map(|(name, ttl_secs)| RecordOp::InsertNegative { name, ttl_secs }),
        (0usize..8, 1usize..=3).prop_map(|(name, records)| RecordOp::Shorten { name, records }),
        Just(RecordOp::Sample),
    ];
    (0u32..40, op)
}

/// The naive model: everything a retain-scan implementation would store.
#[derive(Default)]
struct RecordModel {
    /// key → (expires_at, record count, credibility)
    positives: HashMap<(usize, RecordType), (SimTime, usize, Credibility)>,
    negatives: HashMap<(usize, RecordType), SimTime>,
}

impl RecordModel {
    /// Same credibility rule as `RecordCache::insert`: a fresh entry of
    /// strictly higher credibility is never overwritten.
    fn insert(
        &mut self,
        name: usize,
        records: usize,
        ttl_secs: u32,
        credibility: Credibility,
        now: SimTime,
    ) -> bool {
        let key = (name, RecordType::A);
        if let Some(&(exp, _, cred)) = self.positives.get(&key) {
            if now < exp && cred > credibility {
                return false;
            }
        }
        let exp = Ttl::from_secs(ttl_secs).expires_at(now);
        self.positives.insert(key, (exp, records, credibility));
        true
    }

    /// Retain-scan purge: drop everything expired at or before `now`,
    /// returning how many entries (positive + negative) went.
    fn purge(&mut self, now: SimTime) -> usize {
        let before = self.positives.len() + self.negatives.len();
        self.positives.retain(|_, &mut (exp, _, _)| now < exp);
        self.negatives.retain(|_, &mut exp| now < exp);
        before - self.positives.len() - self.negatives.len()
    }

    fn fresh_record_count(&self) -> usize {
        self.positives.values().map(|&(_, n, _)| n).sum()
    }
}

proptest! {
    /// `RecordCache`'s amortized counters match the retain-scan model on
    /// arbitrary monotone insert/expire schedules.
    #[test]
    fn record_cache_matches_scan_model(ops in proptest::collection::vec(arb_record_op(), 1..60)) {
        let mut cache = RecordCache::new();
        let mut model = RecordModel::default();
        let mut now = SimTime::ZERO;

        for (dt, op) in ops {
            now += dns_core::SimDuration::from_secs(dt as u64);
            match op {
                RecordOp::Insert { name, records, ttl_secs, credibility } => {
                    let set = a_set(&pool_name(name), records, Ttl::from_secs(ttl_secs));
                    let stored = cache.insert(set, now, credibility);
                    let model_stored = model.insert(name, records, ttl_secs, credibility, now);
                    prop_assert_eq!(stored, model_stored);
                }
                RecordOp::InsertNegative { name, ttl_secs } => {
                    cache.insert_negative(
                        pool_name(name),
                        RecordType::A,
                        NegativeKind::NxDomain,
                        Ttl::from_secs(ttl_secs),
                        now,
                    );
                    model
                        .negatives
                        .insert((name, RecordType::A), Ttl::from_secs(ttl_secs).expires_at(now));
                }
                RecordOp::Shorten { name, records } => {
                    let Some(&(exp, _, _)) = model.positives.get(&(name, RecordType::A)) else {
                        continue;
                    };
                    if exp <= now {
                        continue;
                    }
                    let ttl_secs = ((exp - now).as_secs() / 2) as u32;
                    let set = a_set(&pool_name(name), records, Ttl::from_secs(ttl_secs));
                    // Top credibility, so the re-insert always lands.
                    prop_assert!(cache.insert(set, now, Credibility::AuthAnswer));
                    prop_assert!(model.insert(name, records, ttl_secs, Credibility::AuthAnswer, now));
                }
                RecordOp::Sample => {
                    prop_assert_eq!(cache.purge_expired(now), model.purge(now));
                    prop_assert_eq!(cache.fresh_len(now), model.positives.len());
                    prop_assert_eq!(cache.fresh_record_count(now), model.fresh_record_count());
                    prop_assert_eq!(cache.len(), model.positives.len());
                    // Per-key lookups agree with the model's freshness view.
                    for idx in 0..8 {
                        let name = pool_name(idx);
                        let hit = cache.get(&name, RecordType::A, now).is_some();
                        let model_hit = model
                            .positives
                            .get(&(idx, RecordType::A))
                            .is_some_and(|&(exp, _, _)| now < exp);
                        prop_assert_eq!(hit, model_hit);
                        let neg = cache.get_negative(&name, RecordType::A, now).is_some();
                        let model_neg = model
                            .negatives
                            .get(&(idx, RecordType::A))
                            .is_some_and(|&exp| now < exp);
                        prop_assert_eq!(neg, model_neg);
                    }
                }
            }
        }
        // Final settlement at a time past every possible expiry.
        let end = now + dns_core::SimDuration::from_secs(120);
        cache.purge_expired(end);
        model.purge(end);
        prop_assert_eq!(cache.fresh_len(end), 0);
        prop_assert_eq!(cache.fresh_record_count(end), 0);
    }
}

/// One step of a randomized infrastructure schedule.
#[derive(Debug, Clone)]
enum InfraOp {
    Install {
        zone: usize,
        ns_count: usize,
        glue_count: usize,
        ttl_secs: u32,
    },
    /// Attach an out-of-bailiwick address for `ns{ns}` of `zone`.
    AddAddress {
        zone: usize,
        ns: usize,
    },
    /// Re-install `zone` (if fresh) with half its remaining lifetime, so
    /// its expiry moves *earlier*.
    Shorten {
        zone: usize,
        ns_count: usize,
    },
    Sample,
}

fn arb_infra_op() -> impl Strategy<Value = (u32, InfraOp)> {
    let op = prop_oneof![
        (0usize..6, 1usize..=3, 0usize..=3, 0u32..90).prop_map(
            |(zone, ns_count, glue_count, ttl_secs)| InfraOp::Install {
                zone,
                ns_count,
                glue_count: glue_count.min(ns_count),
                ttl_secs,
            }
        ),
        (0usize..6, 0usize..3).prop_map(|(zone, ns)| InfraOp::AddAddress { zone, ns }),
        (0usize..6, 1usize..=3).prop_map(|(zone, ns_count)| InfraOp::Shorten { zone, ns_count }),
        Just(InfraOp::Sample),
    ];
    (0u32..40, op)
}

fn ns_name(zone: usize, ns: usize) -> Name {
    format!("ns{ns}.z{zone}.example").parse().unwrap()
}

/// Model entry mirroring exactly what freshness accounting can observe.
struct InfraModelEntry {
    expires_at: SimTime,
    ns_names: Vec<usize>,
    addrs: Vec<usize>,
}

proptest! {
    /// `InfraCache`'s amortized fresh counters match a retain-scan model,
    /// including re-installs over tombstones and post-install address
    /// attachment.
    #[test]
    fn infra_cache_matches_scan_model(ops in proptest::collection::vec(arb_infra_op(), 1..60)) {
        let mut cache = InfraCache::new();
        let mut model: HashMap<usize, InfraModelEntry> = HashMap::new();
        let mut now = SimTime::ZERO;

        for (dt, op) in ops {
            now += dns_core::SimDuration::from_secs(dt as u64);
            let op = match op {
                InfraOp::Shorten { zone, ns_count } => match model.get(&zone) {
                    Some(e) if now < e.expires_at => InfraOp::Install {
                        zone,
                        ns_count,
                        glue_count: 0,
                        ttl_secs: ((e.expires_at - now).as_secs() / 2) as u32,
                    },
                    _ => continue,
                },
                op => op,
            };
            match op {
                InfraOp::Install { zone, ns_count, glue_count, ttl_secs } => {
                    let ns: Vec<Name> = (0..ns_count).map(|i| ns_name(zone, i)).collect();
                    let glue: Vec<(Name, Ipv4Addr)> = (0..glue_count)
                        .map(|i| (ns_name(zone, i), Ipv4Addr::new(10, 0, zone as u8, i as u8)))
                        .collect();
                    // Child-sourced with refresh on always commits (there
                    // are no root hints in this universe), matching the
                    // model's unconditional replace.
                    let installed = cache.install(
                        pool_name(zone),
                        ns,
                        glue,
                        Ttl::from_secs(ttl_secs),
                        now,
                        InfraSource::Child,
                        true,
                    );
                    prop_assert!(installed);
                    model.insert(zone, InfraModelEntry {
                        expires_at: Ttl::from_secs(ttl_secs).expires_at(now),
                        ns_names: (0..ns_count).collect(),
                        addrs: (0..glue_count).collect(),
                    });
                }
                InfraOp::AddAddress { zone, ns } => {
                    let pair = vec![(ns_name(zone, ns), Ipv4Addr::new(10, 1, zone as u8, ns as u8))];
                    cache.add_addresses(&pool_name(zone), &pair);
                    if let Some(entry) = model.get_mut(&zone) {
                        if entry.ns_names.contains(&ns) && !entry.addrs.contains(&ns) {
                            entry.addrs.push(ns);
                        }
                    }
                }
                InfraOp::Sample => {
                    let fresh_zones =
                        model.values().filter(|e| now < e.expires_at).count();
                    let fresh_records: usize = model
                        .values()
                        .filter(|e| now < e.expires_at)
                        .map(|e| e.ns_names.len() + e.addrs.len())
                        .sum();
                    prop_assert_eq!(cache.fresh_zone_count(now), fresh_zones);
                    prop_assert_eq!(cache.fresh_record_count(now), fresh_records);
                    // Tombstones persist: every installed zone stays listed.
                    prop_assert_eq!(cache.len(), model.len());
                }
                InfraOp::Shorten { .. } => unreachable!("rewritten above"),
            }
        }
        let end = now + dns_core::SimDuration::from_secs(120);
        prop_assert_eq!(cache.fresh_zone_count(end), 0);
        prop_assert_eq!(cache.fresh_record_count(end), 0);
        prop_assert_eq!(cache.len(), model.len());
    }
}

/// A TTL-refresh-heavy schedule: every step re-caches one of a few keys
/// with its fixed TTL, so expiries only ever move later. The heaps must
/// then hold one pair per live entry, not one per insert.
#[test]
fn refresh_heavy_schedule_keeps_one_pair_per_entry() {
    let mut records = RecordCache::new();
    let mut infra = InfraCache::new();
    let mut now = SimTime::ZERO;
    for step in 0..2_000usize {
        now += dns_core::SimDuration::from_secs(7);
        let key = step % 5;
        let ttl = Ttl::from_secs(60 * (key as u32 + 1));
        records.insert(a_set(&pool_name(key), 2, ttl), now, Credibility::AuthAnswer);
        infra.install(
            pool_name(key),
            vec![ns_name(key, 0)],
            vec![(ns_name(key, 0), Ipv4Addr::new(10, 0, key as u8, 0))],
            ttl,
            now,
            InfraSource::Child,
            true,
        );
        if step % 3 == 0 {
            records.purge_expired(now);
        }
        assert!(records.pending_expiry_pairs() <= records.len());
        assert!(infra.pending_expiry_pairs() <= infra.fresh_zone_count(now));
    }
    assert_eq!(records.len(), 5);
    assert_eq!(records.pending_expiry_pairs(), 5);
    assert_eq!(infra.pending_expiry_pairs(), 5);
}
