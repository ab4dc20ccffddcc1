//! Resolver configuration: which resilience schemes are active.

use crate::{RenewalPolicy, RetryPolicy};
use dns_core::{Name, SimDuration, Ttl};
use std::fmt;
use std::net::Ipv4Addr;

/// Root hints: the hard-coded name-server set for the root zone that every
/// caching server ships with (paper §2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootHints {
    servers: Vec<(Name, Ipv4Addr)>,
}

impl RootHints {
    /// Creates hints from `(server name, address)` pairs.
    ///
    /// # Panics
    ///
    /// Panics when `servers` is empty — a resolver without root hints can
    /// never resolve anything.
    pub fn new(servers: Vec<(Name, Ipv4Addr)>) -> Self {
        assert!(!servers.is_empty(), "root hints must not be empty");
        RootHints { servers }
    }

    /// The hinted `(name, address)` pairs.
    pub fn servers(&self) -> &[(Name, Ipv4Addr)] {
        &self.servers
    }
}

/// Flood-defense knobs hardening the resolver against NXNSAttack-style
/// delegation amplification and water-torture random-subdomain floods.
///
/// Every knob defaults to `None` (off/unbounded); the default policy is
/// behaviourally invisible — it consumes no randomness and changes no
/// counters, so experiment transcripts captured before this layer existed
/// stay byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefensePolicy {
    /// MaxFetch(k): per-client-query budget on recursive NS-address
    /// fetches (the glue-chasing fan-out NXNSAttack exploits). When the
    /// budget is exhausted the resolver stops chasing further NS names and
    /// degrades gracefully to whatever addresses resolved within budget —
    /// it never synthesizes a failure just because the budget was hit.
    pub max_ns_fetch: Option<u32>,
    /// Hard entry budget for the negative cache. Inserts beyond the budget
    /// evict the soonest-expiring negative entries first; positive records
    /// are never touched.
    pub neg_cache_max_entries: Option<u32>,
    /// Hard byte budget for the negative cache (approximate: key bytes
    /// plus fixed per-entry overhead). Combined with the entry budget, the
    /// tighter bound wins.
    pub neg_cache_max_bytes: Option<u32>,
    /// Cap on concurrent in-flight upstream walks per target zone in a
    /// shared-cache worker pool, so a flood against one victim zone cannot
    /// starve the pool. Excess queries fail fast without upstream work and
    /// are counted as `flood_suppressed`.
    pub zone_inflight_cap: Option<u32>,
}

impl DefensePolicy {
    /// The default: every defense off/unbounded.
    pub fn off() -> Self {
        DefensePolicy {
            max_ns_fetch: None,
            neg_cache_max_entries: None,
            neg_cache_max_bytes: None,
            zone_inflight_cap: None,
        }
    }

    /// True when every knob is at its default (off) setting.
    pub fn is_off(&self) -> bool {
        *self == DefensePolicy::off()
    }

    /// Label suffix appended to the scheme label when any knob is active.
    fn label_suffix(&self) -> String {
        let mut s = String::new();
        if let Some(k) = self.max_ns_fetch {
            s.push_str(&format!("+maxfetch{k}"));
        }
        if self.neg_cache_max_entries.is_some() || self.neg_cache_max_bytes.is_some() {
            s.push_str("+negcap");
            if let Some(n) = self.neg_cache_max_entries {
                s.push_str(&format!("{n}e"));
            }
            if let Some(b) = self.neg_cache_max_bytes {
                s.push_str(&format!("{b}b"));
            }
        }
        if let Some(c) = self.zone_inflight_cap {
            s.push_str(&format!("+zinflight{c}"));
        }
        s
    }
}

impl Default for DefensePolicy {
    fn default() -> Self {
        DefensePolicy::off()
    }
}

/// Serve-stale and proactive-refresh knobs (RFC 8767 plus the
/// decoupled-update-timing and learned-prefetch variants).
///
/// Every knob defaults to `None` (off); the default policy is
/// behaviourally invisible — it consumes no randomness, changes no
/// counters and leaves the cache's eviction schedule untouched, so
/// experiment transcripts captured before this layer existed stay
/// byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StalePolicy {
    /// Serve-stale window: when a demand fetch fails, an expired record
    /// may still answer the client for up to this long past its expiry
    /// (RFC 8767). The failed fetch doubles as the refresh attempt — it
    /// runs through the ordinary resolution path, including the
    /// single-flight table when coalescing is on, so a herd of clients
    /// behind one dead zone shares one upstream walk. Also configures
    /// the cache to *retain* expired positive entries for this long
    /// instead of evicting them at expiry.
    pub max_stale: Option<SimDuration>,
    /// Proactive refresh: after a cache hit whose entry has consumed at
    /// least this percentage of its TTL, re-fetch it immediately so hot
    /// names are renewed ahead of expiry (decoupling update timing from
    /// the TTL). Counted as `refresh_ahead`.
    pub proactive_percent: Option<u8>,
    /// Learned prefetch: track per-name inter-arrival times and, once a
    /// name has at least this many observations, prefetch it when the
    /// predicted next access falls beyond the entry's expiry. Counted as
    /// `prefetch_issued` / `prefetch_hits` / `prefetch_wasted`.
    pub prefetch_min_samples: Option<u32>,
}

impl StalePolicy {
    /// The default: serve-stale, proactive refresh and prefetch all off.
    pub fn off() -> Self {
        StalePolicy {
            max_stale: None,
            proactive_percent: None,
            prefetch_min_samples: None,
        }
    }

    /// True when every knob is at its default (off) setting.
    pub fn is_off(&self) -> bool {
        *self == StalePolicy::off()
    }

    /// Label suffix appended to the scheme label when any knob is active.
    fn label_suffix(&self) -> String {
        let mut s = String::new();
        if let Some(w) = self.max_stale {
            s.push_str(&format!("+stale{}s", w.as_secs()));
        }
        if let Some(p) = self.proactive_percent {
            s.push_str(&format!("+proactive{p}"));
        }
        if let Some(n) = self.prefetch_min_samples {
            s.push_str(&format!("+prefetch{n}"));
        }
        s
    }
}

impl Default for StalePolicy {
    fn default() -> Self {
        StalePolicy::off()
    }
}

/// Configuration of a [`crate::CachingServer`]: the combination of
/// resilience schemes under test.
///
/// Constructors mirror the paper's evaluated systems:
///
/// * [`ResolverConfig::vanilla`] — current DNS (Figure 4),
/// * [`ResolverConfig::with_refresh`] — TTL refresh (Figure 5),
/// * [`ResolverConfig::with_renewal`] — refresh + renewal (Figures 6–9),
/// * long-TTL (Figures 10–11) is a *zone-side* change applied by the
///   simulator; the resolver just honours the longer TTLs up to `ttl_cap`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolverConfig {
    /// Reset a zone's cached IRR expiry whenever a response from the
    /// zone's own servers carries a copy.
    pub refresh: bool,
    /// Proactive re-fetch of expiring IRRs, budgeted by the policy's
    /// credit; `None` disables renewal.
    pub renewal: Option<RenewalPolicy>,
    /// Upper bound on any accepted TTL. Deployed caching servers reject
    /// TTLs above 7 days (paper §6, "Deployment Issues"); keeping the cap
    /// here means even a misconfigured zone cannot pin the cache forever.
    pub ttl_cap: Ttl,
    /// Upper bound on negative-caching TTLs (SOA `minimum`).
    pub negative_ttl_cap: Ttl,
    /// Maximum time a zone's delegation may go unconfirmed by the parent
    /// before the resolver walks through the parent again, even though
    /// refresh/renewal could keep the child copy alive forever. This is
    /// the paper's §6 safeguard that lets parents reclaim delegations
    /// from non-cooperative former zone owners; the paper suggests
    /// 7 days. `None` disables the recheck (the paper's evaluated
    /// configuration).
    pub parent_recheck: Option<SimDuration>,
    /// Retry/backoff policy for upstream exchanges. The default
    /// ([`RetryPolicy::none`]) keeps the historical single-pass behavior
    /// the virtual-time experiments were published with; the live UDP
    /// path opts into [`RetryPolicy::standard`].
    pub retry: RetryPolicy,
    /// Seed for the resolver's deterministic RNG (query-ID
    /// randomization and backoff jitter). Same seed → same IDs and same
    /// retry schedule.
    pub seed: u64,
    /// Number of data-cache shards a [`crate::ShardedCache`] built for
    /// this configuration should use. The default [`crate::LocalBackend`]
    /// ignores it.
    pub shards: usize,
    /// Single-flight coalescing: top-level cache misses go through the
    /// backend's in-flight table so concurrent identical queries share one
    /// upstream fetch. Off by default — the deterministic experiment
    /// transcripts were captured without the extra cache re-probe a
    /// leader performs.
    pub coalesce: bool,
    /// Flood-defense hardening knobs (MaxFetch(k), negative-cache budget,
    /// per-zone inflight cap). All off by default.
    pub defense: DefensePolicy,
    /// Serve-stale / proactive-refresh / learned-prefetch knobs
    /// (RFC 8767-style resilience). All off by default.
    pub stale: StalePolicy,
}

impl ResolverConfig {
    /// The current DNS: no refresh, no renewal.
    pub fn vanilla() -> Self {
        ResolverConfig {
            refresh: false,
            renewal: None,
            ttl_cap: Ttl::from_days(7),
            negative_ttl_cap: Ttl::from_hours(1),
            parent_recheck: None,
            retry: RetryPolicy::none(),
            seed: 0x0DD5_EED5,
            shards: 1,
            coalesce: false,
            defense: DefensePolicy::off(),
            stale: StalePolicy::off(),
        }
    }

    /// A fluent builder starting from [`ResolverConfig::vanilla`].
    pub fn builder() -> ResolverConfigBuilder {
        ResolverConfigBuilder {
            config: ResolverConfig::vanilla(),
        }
    }

    /// A builder starting from this configuration — the canonical way to
    /// adjust a preset (`ResolverConfig::with_refresh().to_builder()…`).
    pub fn to_builder(self) -> ResolverConfigBuilder {
        ResolverConfigBuilder { config: self }
    }

    /// TTL refresh only.
    pub fn with_refresh() -> Self {
        ResolverConfig {
            refresh: true,
            ..ResolverConfig::vanilla()
        }
    }

    /// TTL refresh plus the given renewal policy (the paper always pairs
    /// renewal with refresh).
    pub fn with_renewal(policy: RenewalPolicy) -> Self {
        ResolverConfig {
            refresh: true,
            renewal: Some(policy),
            ..ResolverConfig::vanilla()
        }
    }

    /// Human-readable scheme label used in experiment output.
    pub fn label(&self) -> String {
        let mut base = match (self.refresh, self.renewal) {
            (false, None) => "vanilla".to_string(),
            (true, None) => "refresh".to_string(),
            (true, Some(p)) => format!("refresh+{}", p.label()),
            (false, Some(p)) => format!("renew-only+{}", p.label()),
        };
        base.push_str(&self.defense.label_suffix());
        base.push_str(&self.stale.label_suffix());
        base
    }
}

impl Default for ResolverConfig {
    fn default() -> Self {
        ResolverConfig::vanilla()
    }
}

/// Fluent constructor for [`ResolverConfig`]: every knob — scheme flags,
/// TTL policy, retry, RNG seed and the concurrency options — in one
/// chain, replacing the scattered `with_*` setters.
///
/// ```rust
/// use dns_resolver::{ResolverConfig, RetryPolicy};
///
/// let config = ResolverConfig::builder()
///     .refresh(true)
///     .retry(RetryPolicy::standard())
///     .seed(42)
///     .shards(8)
///     .coalesce(true)
///     .build();
/// assert!(config.refresh && config.coalesce);
/// assert_eq!(config.shards, 8);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ResolverConfigBuilder {
    config: ResolverConfig,
}

impl ResolverConfigBuilder {
    /// Enables or disables the TTL-refresh scheme.
    pub fn refresh(mut self, on: bool) -> Self {
        self.config.refresh = on;
        self
    }

    /// Enables TTL renewal under `policy` (implies the paper's pairing
    /// with refresh only if you also set [`refresh`](Self::refresh)).
    pub fn renewal(mut self, policy: RenewalPolicy) -> Self {
        self.config.renewal = Some(policy);
        self
    }

    /// Upper bound on any accepted TTL.
    pub fn ttl_cap(mut self, cap: Ttl) -> Self {
        self.config.ttl_cap = cap;
        self
    }

    /// Upper bound on negative-caching TTLs.
    pub fn negative_ttl_cap(mut self, cap: Ttl) -> Self {
        self.config.negative_ttl_cap = cap;
        self
    }

    /// Enables the §6 parent-recheck safeguard with the given bound.
    pub fn parent_recheck(mut self, every: SimDuration) -> Self {
        self.config.parent_recheck = Some(every);
        self
    }

    /// Retry/backoff policy for upstream exchanges.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.config.retry = retry;
        self
    }

    /// Seed for the resolver's deterministic RNG.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Number of data-cache shards for a shared [`crate::ShardedCache`].
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards.max(1);
        self
    }

    /// Enables single-flight coalescing of top-level cache misses.
    pub fn coalesce(mut self, on: bool) -> Self {
        self.config.coalesce = on;
        self
    }

    /// Installs a complete flood-defense policy.
    pub fn defense(mut self, policy: DefensePolicy) -> Self {
        self.config.defense = policy;
        self
    }

    /// MaxFetch(k): per-client-query NS-address fetch budget.
    pub fn max_ns_fetch(mut self, k: u32) -> Self {
        self.config.defense.max_ns_fetch = Some(k);
        self
    }

    /// Hard entry budget for the negative cache.
    pub fn neg_cache_max_entries(mut self, entries: u32) -> Self {
        self.config.defense.neg_cache_max_entries = Some(entries);
        self
    }

    /// Hard byte budget for the negative cache.
    pub fn neg_cache_max_bytes(mut self, bytes: u32) -> Self {
        self.config.defense.neg_cache_max_bytes = Some(bytes);
        self
    }

    /// Per-zone inflight cap for shared-cache worker pools.
    pub fn zone_inflight_cap(mut self, cap: u32) -> Self {
        self.config.defense.zone_inflight_cap = Some(cap);
        self
    }

    /// Installs a complete serve-stale policy.
    pub fn stale(mut self, policy: StalePolicy) -> Self {
        self.config.stale = policy;
        self
    }

    /// Serve-stale window: expired records may answer for up to `window`
    /// past expiry when the demand fetch fails.
    pub fn max_stale(mut self, window: SimDuration) -> Self {
        self.config.stale.max_stale = Some(window);
        self
    }

    /// Proactive refresh threshold as a percentage of TTL consumed.
    pub fn proactive_percent(mut self, percent: u8) -> Self {
        self.config.stale.proactive_percent = Some(percent);
        self
    }

    /// Minimum inter-arrival observations before learned prefetch fires.
    pub fn prefetch_min_samples(mut self, samples: u32) -> Self {
        self.config.stale.prefetch_min_samples = Some(samples);
        self
    }

    /// The finished configuration.
    pub fn build(self) -> ResolverConfig {
        self.config
    }
}

impl fmt::Display for ResolverConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_match_paper_systems() {
        let v = ResolverConfig::vanilla();
        assert!(!v.refresh);
        assert!(v.renewal.is_none());

        let r = ResolverConfig::with_refresh();
        assert!(r.refresh);
        assert!(r.renewal.is_none());

        let rr = ResolverConfig::with_renewal(RenewalPolicy::adaptive_lfu(3));
        assert!(rr.refresh);
        assert!(rr.renewal.is_some());
    }

    #[test]
    fn labels() {
        assert_eq!(ResolverConfig::vanilla().label(), "vanilla");
        assert_eq!(ResolverConfig::with_refresh().label(), "refresh");
        assert_eq!(
            ResolverConfig::with_renewal(RenewalPolicy::lru(3)).label(),
            "refresh+LRU_3"
        );
    }

    #[test]
    fn ttl_cap_defaults_to_seven_days() {
        assert_eq!(ResolverConfig::vanilla().ttl_cap, Ttl::from_days(7));
    }

    #[test]
    fn builder_covers_every_knob() {
        let c = ResolverConfig::builder()
            .refresh(true)
            .renewal(RenewalPolicy::lru(3))
            .ttl_cap(Ttl::from_days(3))
            .negative_ttl_cap(Ttl::from_mins(10))
            .parent_recheck(SimDuration::from_days(7))
            .retry(RetryPolicy::standard())
            .seed(99)
            .shards(8)
            .coalesce(true)
            .build();
        assert!(c.refresh);
        assert_eq!(c.renewal, Some(RenewalPolicy::lru(3)));
        assert_eq!(c.ttl_cap, Ttl::from_days(3));
        assert_eq!(c.negative_ttl_cap, Ttl::from_mins(10));
        assert_eq!(c.parent_recheck, Some(SimDuration::from_days(7)));
        assert_eq!(c.retry, RetryPolicy::standard());
        assert_eq!(c.seed, 99);
        assert_eq!(c.shards, 8);
        assert!(c.coalesce);
        // The default stays single-pass so virtual-time experiment counts
        // are unchanged.
        assert_eq!(ResolverConfig::vanilla().retry, RetryPolicy::none());
    }

    #[test]
    fn builder_defaults_match_vanilla_and_presets_convert() {
        assert_eq!(ResolverConfig::builder().build(), ResolverConfig::vanilla());
        let c = ResolverConfig::with_refresh().to_builder().seed(7).build();
        assert!(c.refresh);
        assert_eq!(c.seed, 7);
        // Shard counts floor at one.
        assert_eq!(ResolverConfig::builder().shards(0).build().shards, 1);
    }

    #[test]
    fn builder_sets_retry_seed_and_parent_recheck() {
        let c = ResolverConfig::builder()
            .retry(RetryPolicy::standard())
            .seed(99)
            .parent_recheck(SimDuration::from_days(7))
            .build();
        assert_eq!(c.retry, RetryPolicy::standard());
        assert_eq!(c.seed, 99);
        assert_eq!(c.parent_recheck, Some(SimDuration::from_days(7)));
    }

    #[test]
    fn defense_defaults_off_and_label_neutral() {
        let v = ResolverConfig::vanilla();
        assert!(v.defense.is_off());
        // Labels are memo/CSV keys — an off policy must not perturb them.
        assert_eq!(v.label(), "vanilla");
        assert_eq!(ResolverConfig::with_refresh().label(), "refresh");
    }

    #[test]
    fn defense_builder_knobs_and_labels() {
        let c = ResolverConfig::builder()
            .max_ns_fetch(4)
            .neg_cache_max_entries(1000)
            .zone_inflight_cap(8)
            .build();
        assert_eq!(c.defense.max_ns_fetch, Some(4));
        assert_eq!(c.defense.neg_cache_max_entries, Some(1000));
        assert_eq!(c.defense.zone_inflight_cap, Some(8));
        assert!(!c.defense.is_off());
        assert_eq!(c.label(), "vanilla+maxfetch4+negcap1000e+zinflight8");

        let d = DefensePolicy {
            neg_cache_max_bytes: Some(4096),
            ..DefensePolicy::off()
        };
        let c = ResolverConfig::builder().defense(d).build();
        assert_eq!(c.label(), "vanilla+negcap4096b");
    }

    #[test]
    fn stale_defaults_off_and_label_neutral() {
        let v = ResolverConfig::vanilla();
        assert!(v.stale.is_off());
        // Labels are memo/CSV keys — an off policy must not perturb them.
        assert_eq!(v.label(), "vanilla");
        assert_eq!(
            ResolverConfig::builder()
                .stale(StalePolicy::off())
                .build()
                .label(),
            "vanilla"
        );
    }

    #[test]
    fn stale_builder_knobs_and_labels() {
        let c = ResolverConfig::builder()
            .max_stale(SimDuration::from_hours(1))
            .proactive_percent(80)
            .prefetch_min_samples(3)
            .build();
        assert_eq!(c.stale.max_stale, Some(SimDuration::from_hours(1)));
        assert_eq!(c.stale.proactive_percent, Some(80));
        assert_eq!(c.stale.prefetch_min_samples, Some(3));
        assert!(!c.stale.is_off());
        assert_eq!(c.label(), "vanilla+stale3600s+proactive80+prefetch3");

        let s = StalePolicy {
            max_stale: Some(SimDuration::from_mins(30)),
            ..StalePolicy::off()
        };
        let c = ResolverConfig::with_refresh().to_builder().stale(s).build();
        assert_eq!(c.label(), "refresh+stale1800s");
    }

    #[test]
    #[should_panic(expected = "root hints must not be empty")]
    fn empty_root_hints_rejected() {
        RootHints::new(vec![]);
    }

    #[test]
    fn root_hints_expose_servers() {
        let hints = RootHints::new(vec![(
            "a.root-servers.net".parse().unwrap(),
            Ipv4Addr::new(198, 41, 0, 4),
        )]);
        assert_eq!(hints.servers().len(), 1);
    }
}
