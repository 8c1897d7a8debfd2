//! World generation: calibrated per-country toplists over a shared global
//! site pool.
//!
//! For every country and layer, assembly proceeds in four steps:
//!
//! 1. **Shape** — solve for an anonymous count vector hitting the paper's
//!    reported centralization score ([`crate::calibrate::solve_counts`]),
//!    with the top-provider share anchored by §5/§6/§7/Appendix B quotes.
//! 2. **Identity** — assign providers to ranks with a budgeted greedy that
//!    honors the country's insularity target and the §5.3 cross-border
//!    dependence map (`assign_identities`).
//! 3. **Mixture** — subtract the contribution of the country's share of
//!    the global site pool (those sites' dependencies are fixed world-wide)
//!    and re-adjust the remainder so the *total* still hits the target
//!    ([`crate::calibrate::adjust_to_target`]).
//! 4. **Materialize** — expand counts into per-site owner slots; hosting
//!    and DNS are expanded in the same order so the Cloudflare blocks
//!    overlap, reproducing the paper's observation that hosting and DNS are
//!    bundled. Then forge the concrete [`Site`]s and interleave them with
//!    the global picks into the toplist.
//!
//! Steps 1–3 and the slot expansion are a country's *plan*: a pure
//! function of the config, the universe and the global pool's sites (every
//! global pick indexes the pool). The 150 plans run on scoped threads that
//! pull countries from a shared cursor. Forging the sites stays on the calling
//! thread, in country order, on one [`DomainForge`]: every name, site index
//! and toplist entry is what a one-country-at-a-time generation produces,
//! and every site string is allocated by the caller, not left in a worker
//! thread's allocator arena.

use crate::calibrate::{adjust_to_target, solve_counts};
use crate::country::{CountryRecord, Layer};
use crate::depmap;
use crate::paper_data::COUNTRIES;
use crate::provider::TldKind;
use crate::toplist::{expand_counts, seeded_shuffle, DomainForge, Site};
use crate::universe::Universe;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// World generation parameters.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master seed; every derived decision is a pure function of it.
    pub seed: u64,
    /// Sites per country toplist (the paper uses 10,000).
    pub sites_per_country: u32,
    /// Size of the shared global site pool.
    pub global_pool_size: u32,
    /// Regional-provider tail scale in `(0, 1]` (1.0 = paper's ~12k).
    pub tail_scale: f64,
    /// Approximate provider pool size per country/layer distribution.
    pub pool_target: usize,
}

impl WorldConfig {
    /// Full paper scale: 150 x 10k sites, ~12k providers.
    pub fn paper() -> Self {
        WorldConfig {
            seed: 42,
            sites_per_country: 10_000,
            global_pool_size: 30_000,
            tail_scale: 1.0,
            pool_target: 420,
        }
    }

    /// Small scale for integration tests and examples (seconds, not
    /// minutes).
    pub fn small() -> Self {
        WorldConfig {
            seed: 42,
            sites_per_country: 1_000,
            global_pool_size: 3_000,
            tail_scale: 0.10,
            pool_target: 140,
        }
    }

    /// Tiny scale for unit tests.
    pub fn tiny() -> Self {
        WorldConfig {
            seed: 42,
            sites_per_country: 300,
            global_pool_size: 900,
            tail_scale: 0.04,
            pool_target: 60,
        }
    }
}

/// A fully generated world: sites, toplists, and the entity universe.
#[derive(Debug, Clone)]
pub struct World {
    /// Generation parameters.
    pub config: WorldConfig,
    /// Provider / CA / TLD universe.
    pub universe: Universe,
    /// All unique sites.
    pub sites: Vec<Site>,
    /// Per-country toplists (indexed like [`COUNTRIES`]); entries are
    /// indices into `sites`, rank order.
    pub toplists: Vec<Vec<u32>>,
    /// The global top list (first `sites_per_country` global-pool sites).
    pub global_top: Vec<u32>,
    /// Snapshot label, e.g. `2023-05`.
    pub label: String,
}

/// A candidate group for identity assignment: a site budget and an ordered
/// candidate list.
struct Group {
    budget_sites: f64,
    candidates: Vec<u32>,
    next: usize,
}

impl Group {
    fn new(budget_share: f64, total: u64, candidates: Vec<u32>) -> Self {
        Group {
            budget_sites: budget_share * total as f64,
            candidates,
            next: 0,
        }
    }

    fn has_candidates(&self) -> bool {
        self.next < self.candidates.len()
    }
}

/// Assigns owners to a sorted (nonincreasing) anonymous count vector.
///
/// `counts[0]` goes to `head`; each subsequent rank goes to the group with
/// the largest remaining budget that still has candidates (ties and
/// exhausted budgets fall through to whichever group has the most unused
/// candidates). Every owner is used at most once.
fn assign_identities(counts: &[u64], head: u32, groups: Vec<Group>) -> Vec<(u32, u64)> {
    assign_identities_pinned(counts, head, &[], groups)
}

/// [`assign_identities`] with pinned owners for the ranks right behind the
/// head — used for the paper's dominant runner-up anchors
/// (SuperHosting.BG, UAB, Asseco) and the quoted TLD decompositions
/// (e.g. Kyrgyzstan: .com 29%, .ru 22%, .kg 12%).
fn assign_identities_pinned(
    counts: &[u64],
    head: u32,
    pinned: &[u32],
    mut groups: Vec<Group>,
) -> Vec<(u32, u64)> {
    let mut out: Vec<(u32, u64)> = Vec::with_capacity(counts.len());
    // Deduplicate candidates across groups (and exclude the pinned owners)
    // so an owner cannot be assigned twice. Owner ids are dense indices, so
    // a bitmap over them does what a set would.
    let max_id = groups
        .iter()
        .flat_map(|g| &g.candidates)
        .chain(pinned)
        .fold(head, |m, &c| m.max(c));
    let mut seen = vec![false; max_id as usize + 1];
    seen[head as usize] = true;
    for &p in pinned {
        seen[p as usize] = true;
    }
    for g in &mut groups {
        g.candidates
            .retain(|&c| !std::mem::replace(&mut seen[c as usize], true));
    }
    out.push((head, counts[0]));
    let mut rest = &counts[1..];
    for &owner in pinned {
        let Some((&c1, tail)) = rest.split_first() else {
            break;
        };
        out.push((owner, c1));
        rest = tail;
    }
    for &count in rest {
        let pick = groups
            .iter()
            .enumerate()
            .filter(|(_, g)| g.has_candidates())
            .max_by(|(_, a), (_, b)| {
                a.budget_sites
                    .partial_cmp(&b.budget_sites)
                    .expect("budgets are finite")
            })
            .map(|(i, _)| i);
        let Some(gi) = pick else {
            break; // ran out of owners; the remaining ranks are dropped
        };
        let g = &mut groups[gi];
        let owner = g.candidates[g.next];
        g.next += 1;
        g.budget_sites -= count as f64;
        out.push((owner, count));
    }
    out
}

/// Computes per-owner counts among a set of already-assigned sites.
fn tally<F: Fn(&Site) -> u32>(sites: &[Site], picks: &[u32], key: F) -> HashMap<u32, u64> {
    let mut m: HashMap<u32, u64> = HashMap::new();
    for &idx in picks {
        *m.entry(key(&sites[idx as usize])).or_insert(0) += 1;
    }
    m
}

/// Mixes the fixed global-pool contribution into the assigned target
/// counts and returns per-owner *local* counts summing to `local_total`.
fn mix_with_global(
    target_s: f64,
    assigned: Vec<(u32, u64)>,
    global_contrib: &HashMap<u32, u64>,
    local_total: u64,
) -> Vec<(u32, u64)> {
    // Owner-indexed combined counts, floored by the global contribution.
    // Owners appended in id order: the order decides the proportional cuts
    // and the largest-slack tie-break below, so it must not be the map's
    // (per-process random) iteration order.
    let mut owners: Vec<u32> = assigned.iter().map(|&(o, _)| o).collect();
    let mut global_owners: Vec<u32> = global_contrib.keys().copied().collect();
    global_owners.sort_unstable();
    for o in global_owners {
        if !owners.contains(&o) {
            owners.push(o);
        }
    }
    let idx_of: HashMap<u32, usize> = owners.iter().enumerate().map(|(i, &o)| (o, i)).collect();
    let mut combined = vec![0u64; owners.len()];
    for &(o, c) in &assigned {
        combined[idx_of[&o]] = c;
    }
    let mut floors = vec![0u64; owners.len()];
    for (&o, &c) in global_contrib {
        floors[idx_of[&o]] = c;
        if combined[idx_of[&o]] < c {
            combined[idx_of[&o]] = c;
        }
    }
    // Re-balance the total to local_total + global_total.
    let global_total: u64 = global_contrib.values().sum();
    let want_total = local_total + global_total;
    let mut have: u64 = combined.iter().sum();
    // Shed surplus *proportionally* to each owner's local slack so the
    // assigned shape (head, dependence budgets) survives the rebalance.
    if have > want_total {
        let surplus = have - want_total;
        let total_slack: u64 = combined.iter().zip(&floors).map(|(&c, &f)| c - f).sum();
        debug_assert!(total_slack >= surplus, "floors exceed the site budget");
        let mut cut_left = surplus;
        for i in 0..combined.len() {
            let slack = combined[i] - floors[i];
            let cut = ((slack as u128 * surplus as u128 / total_slack.max(1) as u128) as u64)
                .min(cut_left);
            combined[i] -= cut;
            cut_left -= cut;
        }
        // Rounding leftovers: take single sites from the largest slack.
        while cut_left > 0 {
            let i = (0..combined.len())
                .filter(|&i| combined[i] > floors[i])
                .max_by_key(|&i| combined[i] - floors[i])
                .expect("surplus implies slack somewhere");
            combined[i] -= 1;
            cut_left -= 1;
        }
        have = want_total;
    }
    // Grow a deficit on the head (index of max) — rare.
    if have < want_total {
        let i = (0..combined.len())
            .max_by_key(|&i| combined[i])
            .expect("non-empty");
        combined[i] += want_total - have;
    }
    adjust_to_target(&mut combined, &floors, target_s);
    owners
        .into_iter()
        .zip(combined)
        .zip(floors)
        .map(|((o, c), f)| (o, c - f))
        .filter(|&(_, c)| c > 0)
        .collect()
}

/// Cheap deterministic per-country hash for pool-size jitter etc.
fn country_hash(seed: u64, code: &str) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for b in code.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// One country's calibrated toplist before any of its sites exists.
struct CountryPlan {
    /// Global-pool share of the toplist; sets the interleave stride.
    f_g: f64,
    /// Pool indices of the global picks, rank order.
    picks: Vec<u32>,
    /// Per local site, in order: its owner on each layer.
    host: Vec<u32>,
    dns: Vec<u32>,
    ca: Vec<u32>,
    tld: Vec<u32>,
}

/// Upper bound on threads planning the countries, as in `stats::par`.
const MAX_DEFAULT_THREADS: usize = 8;

/// Available parallelism, capped (`stats::par::default_threads`).
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_DEFAULT_THREADS)
}

/// Applies `f` to `0..n` on up to `threads` scoped threads and returns the
/// results in index order: `stats::par::par_map_indices`, written out
/// because a `webdep-stats` edge from this crate would rewrite
/// `perfbench/Cargo.lock`. Threads pull indices from a shared cursor, so a
/// slow item does not idle the rest; every thread count, one included,
/// takes this one path.
fn par_map_indices<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(i)));
                }
                collected.lock().unwrap().extend(local);
            });
        }
    });

    let pairs = collected.into_inner().unwrap();
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in pairs {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|r| r.expect("every index produced a result"))
        .collect()
}

/// Marks a two-letter code no country in [`COUNTRIES`] has.
const NO_COUNTRY: u8 = u8::MAX;

/// The [`COUNTRIES`] index of every uppercase two-letter code, at
/// `(first - 'A') * 26 + (second - 'A')`, built at compile time: the
/// country join of every observation is one load, not a scan of the
/// 150 records. Building it asserts that every code is two uppercase
/// ASCII letters and that no two countries share one.
static COUNTRY_INDEX: [u8; 26 * 26] = {
    assert!(COUNTRIES.len() < NO_COUNTRY as usize);
    let mut table = [NO_COUNTRY; 26 * 26];
    let mut i = 0;
    while i < COUNTRIES.len() {
        let code = COUNTRIES[i].code.as_bytes();
        assert!(code.len() == 2 && code[0].is_ascii_uppercase() && code[1].is_ascii_uppercase());
        let slot = (code[0] - b'A') as usize * 26 + (code[1] - b'A') as usize;
        assert!(table[slot] == NO_COUNTRY, "two countries share a code");
        table[slot] = i as u8;
        i += 1;
    }
    table
};

impl World {
    /// Index of a country code in [`COUNTRIES`] order: `None` for
    /// anything but the uppercase code of one of the 150 countries.
    pub fn country_index(code: &str) -> Option<usize> {
        let &[a, b] = code.as_bytes() else {
            return None;
        };
        if !a.is_ascii_uppercase() || !b.is_ascii_uppercase() {
            return None;
        }
        let i = COUNTRY_INDEX[usize::from(a - b'A') * 26 + usize::from(b - b'A')];
        (i != NO_COUNTRY).then_some(usize::from(i))
    }

    /// Generates the world.
    pub fn generate(config: WorldConfig) -> World {
        let universe = Universe::build(config.tail_scale);
        let mut forge = DomainForge::new(0);
        let mut sites: Vec<Site> = Vec::new();

        // ---- Global pool ----
        let g = config.global_pool_size as u64;
        let pool = |s: f64| (config.pool_target as f64 * (0.8 + s)).round() as usize;
        let cf = universe.provider_by_name("Cloudflare").expect("exists");
        let le = universe.ca_by_name("Let's Encrypt").expect("exists");
        let com = universe.tld_by_label("com").expect("exists");

        // Regional mix candidates: each country's largest providers,
        // round-robin so the pool touches many countries.
        let mut regional_rr: Vec<u32> = Vec::new();
        for slot in 0..4 {
            for c in &COUNTRIES {
                if let Some(list) = universe.regional_by_country.get(c.code) {
                    if let Some(&id) = list.get(slot) {
                        regional_rr.push(id);
                    }
                }
            }
        }

        let s_host_global = 0.14;
        let host_counts = solve_counts(
            s_host_global,
            g,
            pool(s_host_global),
            depmap::head_share_for_score(s_host_global),
        );
        let host_assign = assign_identities(
            &host_counts,
            cf,
            vec![
                Group::new(0.72, g, universe.global_hosting.clone()),
                Group::new(0.28, g, regional_rr.clone()),
            ],
        );
        let s_dns_global = 0.13;
        let dns_counts = solve_counts(
            s_dns_global,
            g,
            pool(s_dns_global),
            depmap::head_share_for_score(s_dns_global),
        );
        let dns_regional_rr: Vec<u32> = regional_rr
            .iter()
            .copied()
            .filter(|&id| universe.provider(id).offers_dns)
            .collect();
        let dns_assign = assign_identities(
            &dns_counts,
            cf,
            vec![
                Group::new(0.74, g, universe.global_dns.clone()),
                Group::new(0.26, g, dns_regional_rr.clone()),
            ],
        );
        let s_ca_global = 0.19;
        let ca_counts = solve_counts(
            s_ca_global,
            g,
            30,
            depmap::head_share_for_score(s_ca_global),
        );
        // The seven large global CAs (plus the two medium ones) carry ~98%
        // of the web (§7.1); the regional tail is a rounding error in the
        // global pool.
        let big_cas: Vec<u32> = [
            "DigiCert",
            "Sectigo",
            "Google Trust Services",
            "Amazon Trust Services",
            "GlobalSign",
            "GoDaddy",
            "Entrust",
            "IdenTrust",
        ]
        .iter()
        .filter_map(|n| universe.ca_by_name(n))
        .collect();
        // The pool's small CA tail draws from the *small* regional CAs:
        // large regional authorities (Asseco, SECOM, TWCA, ...) live in
        // their home markets, not on globally popular sites (§7.2).
        let ca_tail: Vec<u32> = universe
            .cas
            .iter()
            .filter(|ca| ca.tier != crate::provider::ProviderTier::LargeRegional)
            .map(|ca| ca.id)
            .collect();
        let ca_assign = assign_identities(
            &ca_counts,
            le,
            vec![Group::new(0.985, g, big_cas), Group::new(0.015, g, ca_tail)],
        );
        // Global sites skew hard to .com — this is why the paper's Figure 12
        // notes the global top list is *not* representative of TLD
        // centralization.
        let s_tld_global = 0.50;
        let tld_counts = solve_counts(s_tld_global, g, 40, 0.70);
        let tld_assign = assign_identities(
            &tld_counts,
            com,
            vec![Group::new(
                1.0,
                g,
                (0..universe.tlds.len() as u32).collect(),
            )],
        );

        let mut host_slots = expand_counts(&host_assign);
        let mut dns_slots = expand_counts(&dns_assign);
        let mut ca_slots = expand_counts(&ca_assign);
        let mut tld_slots = expand_counts(&tld_assign);
        // Decouple TLD from providers a little (global sites on Cloudflare
        // are not exclusively .com), but keep hosting/DNS aligned.
        seeded_shuffle(&mut tld_slots, config.seed ^ 0x7777);
        // Mild decorrelation of the DNS tail (heads still overlap).
        let keep = (dns_slots.len() as f64 * 0.8) as usize;
        seeded_shuffle(&mut dns_slots[keep..], config.seed ^ 0x8888);
        // Pool *rank* must not correlate with provider (rank 1 is not
        // Cloudflare's first customer) — apply one common permutation to
        // all attribute slots so countries picking the pool top get a
        // representative provider mixture while hosting/DNS stay aligned.
        let mut perm: Vec<u32> = (0..g as u32).collect();
        seeded_shuffle(&mut perm, config.seed ^ 0x9999);
        host_slots = perm.iter().map(|&i| host_slots[i as usize]).collect();
        dns_slots = perm.iter().map(|&i| dns_slots[i as usize]).collect();
        ca_slots = perm.iter().map(|&i| ca_slots[i as usize]).collect();
        tld_slots = perm.iter().map(|&i| tld_slots[i as usize]).collect();

        for i in 0..g as usize {
            let tld = tld_slots[i];
            let domain = forge.next(&universe.tld(tld).label);
            sites.push(Site {
                domain,
                tld,
                hosting: host_slots[i],
                dns: dns_slots[i],
                ca: ca_slots[i],
                language: "en".to_string(),
                is_global: true,
            });
        }

        // The global toplist: pool order is rank order.
        let global_top: Vec<u32> =
            (0..config.sites_per_country.min(config.global_pool_size)).collect();

        // ---- Per-country toplists ----
        // The plans read only the pool, so they run in parallel; sites are
        // forged and indexed here, in country order.
        let plans = par_map_indices(COUNTRIES.len(), default_threads(), |ci| {
            Self::plan_country(&config, &universe, &sites, &COUNTRIES[ci], ci)
        });
        let toplists: Vec<Vec<u32>> = plans
            .into_iter()
            .zip(&COUNTRIES)
            .map(|(plan, country)| {
                Self::materialize_country(plan, &config, &universe, country, &mut forge, &mut sites)
            })
            .collect();

        World {
            config,
            universe,
            sites,
            toplists,
            global_top,
            label: "2023-05".to_string(),
        }
    }

    /// Plans one country's toplist: its global picks and, per layer, the
    /// owner of each of its local sites. Reads only the config, the
    /// universe and the global pool's sites, so plans are independent of
    /// each other.
    fn plan_country(
        config: &WorldConfig,
        universe: &Universe,
        pool: &[Site],
        country: &CountryRecord,
        country_idx: usize,
    ) -> CountryPlan {
        let c_total = config.sites_per_country as u64;
        let h = country_hash(config.seed, country.code);
        let s_host = country.paper_score(Layer::Hosting);
        let local_share = depmap::default_local_share(country);

        // Global-pool fraction: centralized countries lean on global sites,
        // highly insular ones on local content.
        let f_g = (0.30 + 0.9 * s_host - 0.35 * local_share).clamp(0.12, 0.60);
        let n_g = ((f_g * c_total as f64) as u64).min(config.global_pool_size as u64);
        let n_local = c_total - n_g;

        // Global picks: every country carries the global head (the top
        // half of its quota comes straight from the pool top — google.com
        // is popular everywhere), then a country-phased stride through the
        // rest of the pool.
        let phase = (h % 2) as u32;
        let half = (n_g / 2) as u32;
        let picks: Vec<u32> = (0..n_g as u32)
            .map(|k| {
                if k < half {
                    return k;
                }
                let idx = half + (k - half) * 2 + phase;
                if (idx as u64) < config.global_pool_size as u64 {
                    idx
                } else {
                    k
                }
            })
            .collect();
        debug_assert!(
            picks.iter().all(|&p| p < config.global_pool_size),
            "a plan reads only the pool"
        );

        let pool_jitter = |base: usize| {
            let v = (h >> 8) % 40;
            (base as u64 * (80 + v) / 100) as usize
        };

        // --- layer assembly helper ---
        let assemble = |layer: Layer,
                        head: u32,
                        pins: Vec<(u32, f64)>,
                        groups: Vec<Group>,
                        pool_size: usize,
                        picks_tally: &HashMap<u32, u64>|
         -> Vec<(u32, u64)> {
            let target = country.paper_score(layer);
            let mut head_share = depmap::head_share(country, layer);
            let counts;
            let mut owners: Vec<u32> = Vec::new();
            if pins.is_empty() {
                counts = solve_counts(target, c_total, pool_size.max(8), head_share);
            } else {
                // Keep pins sorted by share so pinned ranks stay ordered,
                // and shrink shares front-to-back until the fixed heads fit
                // under the target score.
                let mut pins = pins;
                pins.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
                let mut pin_sq: f64 = pins.iter().map(|&(_, s)| s * s).sum();
                let budget = target * 0.985;
                if pin_sq > budget {
                    let scale = (budget * 0.9 / pin_sq).sqrt();
                    for p in &mut pins {
                        p.1 *= scale;
                    }
                    pin_sq = pins.iter().map(|&(_, s)| s * s).sum();
                }
                let head_max = (budget - pin_sq).max(0.0004).sqrt();
                head_share = head_share.min(head_max).max(0.02);
                let mut heads = vec![head_share];
                heads.extend(pins.iter().map(|&(_, s)| s));
                owners = pins.iter().map(|&(o, _)| o).collect();
                counts =
                    crate::calibrate::solve_counts_multi(target, c_total, pool_size.max(8), &heads);
            }
            let assigned = assign_identities_pinned(&counts, head, &owners, groups);
            mix_with_global(target, assigned, picks_tally, n_local)
        };

        // Candidate lists.
        let cf = universe.provider_by_name("Cloudflare").expect("exists");
        let amazon = universe.provider_by_name("Amazon").expect("exists");
        let host_head = if country.code == "JP" { amazon } else { cf };
        let local_candidates: Vec<u32> = universe
            .regional_by_country
            .get(country.code)
            .cloned()
            .unwrap_or_default();
        let deps = depmap::foreign_deps(country.code);
        let foreign_budget: f64 = deps.iter().map(|(_, s)| s).sum();

        // Filler: other countries' small providers, phased by country so
        // different countries pull different tails (this is what gives the
        // XS-RP class its one-country endemicity).
        let mut filler: Vec<u32> = Vec::new();
        let n_countries = COUNTRIES.len();
        for step in 0..6 {
            for k in 0..n_countries {
                let cc = COUNTRIES[(country_idx + 37 * (k + 1)) % n_countries].code;
                if cc == country.code {
                    continue;
                }
                if let Some(list) = universe.regional_by_country.get(cc) {
                    // Take from the back: the XS tail.
                    let back = list.len().saturating_sub(1 + step + (h as usize + k) % 3);
                    if let Some(&id) = list.get(back) {
                        filler.push(id);
                    }
                }
            }
        }

        let head_share_host = depmap::head_share(country, Layer::Hosting);
        let global_budget = (1.0 - head_share_host - local_share - foreign_budget - 0.04).max(0.05);

        // Hosting.
        let mut host_groups = vec![Group::new(local_share, c_total, local_candidates.clone())];
        for &(tcc, share) in &deps {
            host_groups.push(Group::new(
                share,
                c_total,
                universe
                    .regional_by_country
                    .get(tcc)
                    .cloned()
                    .unwrap_or_default(),
            ));
        }
        host_groups.push(Group::new(
            global_budget,
            c_total,
            universe.global_hosting.clone(),
        ));
        host_groups.push(Group::new(0.04, c_total, filler.clone()));
        let picks_host = tally(pool, &picks, |s| s.hosting);
        let host_pins: Vec<(u32, f64)> = depmap::second_anchor(country.code, Layer::Hosting)
            .and_then(|(name, share)| universe.provider_by_name(name).map(|id| (id, share)))
            .into_iter()
            .collect();
        let host_local = assemble(
            Layer::Hosting,
            host_head,
            host_pins,
            host_groups,
            pool_jitter(config.pool_target),
            &picks_host,
        );

        // DNS: same budgets over DNS-capable providers; managed DNS rises.
        let mut dns_global = universe.global_dns.clone();
        // Promote NSONE / UltraDNS into the global head (top-10 in 100+
        // countries per §6.2).
        for name in ["Neustar UltraDNS", "NSONE"] {
            if let Some(id) = universe.provider_by_name(name) {
                if let Some(pos) = dns_global.iter().position(|&x| x == id) {
                    dns_global.remove(pos);
                    dns_global.insert(2.min(dns_global.len()), id);
                }
            }
        }
        let dns_local: Vec<u32> = local_candidates
            .iter()
            .copied()
            .filter(|&id| universe.provider(id).offers_dns)
            .collect();
        let mut dns_groups = vec![Group::new(local_share, c_total, dns_local)];
        for &(tcc, share) in &deps {
            dns_groups.push(Group::new(
                share,
                c_total,
                universe
                    .regional_by_country
                    .get(tcc)
                    .map(|l| {
                        l.iter()
                            .copied()
                            .filter(|&id| universe.provider(id).offers_dns)
                            .collect()
                    })
                    .unwrap_or_default(),
            ));
        }
        dns_groups.push(Group::new(global_budget, c_total, dns_global));
        dns_groups.push(Group::new(
            0.04,
            c_total,
            filler
                .iter()
                .copied()
                .filter(|&id| universe.provider(id).offers_dns)
                .collect(),
        ));
        let picks_dns = tally(pool, &picks, |s| s.dns);
        let dns_local_counts = assemble(
            Layer::Dns,
            host_head,
            Vec::new(),
            dns_groups,
            pool_jitter(config.pool_target),
            &picks_dns,
        );

        // CA: Let's Encrypt head, the big 7 + regional usage table.
        let le = universe.ca_by_name("Let's Encrypt").expect("exists");
        let mut ca_groups: Vec<Group> = Vec::new();
        let mut regional_ca_budget = 0.0;
        for (ca_name, share) in depmap::ca_regional_usage(country.code) {
            if let Some(id) = universe.ca_by_name(ca_name) {
                regional_ca_budget += share;
                ca_groups.push(Group::new(share, c_total, vec![id]));
            }
        }
        let big: Vec<u32> = [
            "DigiCert",
            "Sectigo",
            "Google Trust Services",
            "Amazon Trust Services",
            "GlobalSign",
            "GoDaddy",
            "Entrust",
            "IdenTrust",
        ]
        .iter()
        .filter_map(|n| universe.ca_by_name(n))
        .collect();
        let ca_head_share = depmap::head_share(country, Layer::Ca);
        ca_groups.push(Group::new(
            (1.0 - ca_head_share - regional_ca_budget - 0.015).max(0.05),
            c_total,
            big,
        ));
        // Tail CAs: beyond the global authorities, regional CA usage stays
        // geographically close (§7.2: "use of regional CAs is concentrated
        // in their home country") — the filler offers only same-continent
        // CAs, rotated per country.
        let mut ca_filler: Vec<u32> = universe
            .cas
            .iter()
            .filter(|ca| crate::deploy::continent_of_country(&ca.country) == country.continent)
            .map(|ca| ca.id)
            .collect();
        if ca_filler.is_empty() {
            ca_filler = (0..universe.cas.len() as u32).collect();
        }
        let rot = (h % ca_filler.len() as u64) as usize;
        ca_filler.rotate_left(rot);
        ca_groups.push(Group::new(0.015, c_total, ca_filler));
        let picks_ca = tally(pool, &picks, |s| s.ca);
        let ca_pins: Vec<(u32, f64)> = depmap::second_anchor(country.code, Layer::Ca)
            .and_then(|(name, share)| universe.ca_by_name(name).map(|id| (id, share)))
            .into_iter()
            .collect();
        let ca_pool = 14 + (h % 12) as usize;
        let ca_local_counts = assemble(Layer::Ca, le, ca_pins, ca_groups, ca_pool, &picks_ca);

        // TLD.
        let com = universe.tld_by_label("com").expect("exists");
        let own_cc = universe
            .tld_by_label(&country.code.to_ascii_lowercase())
            .expect("every country has a ccTLD");
        let cc_headed = depmap::CCTLD_HEADED.contains(&country.code);
        let tld_head = if cc_headed { own_cc } else { com };
        let mut tld_groups: Vec<Group> = Vec::new();
        // The non-head of {com, ccTLD}.
        let second_share = if cc_headed {
            depmap::COM_SHARE_ANCHORS
                .iter()
                .find(|&&(cc, _)| cc == country.code)
                .map(|&(_, s)| s)
                .unwrap_or(0.25)
        } else {
            depmap::CCTLD_SHARE_ANCHORS
                .iter()
                .find(|&&(cc, _)| cc == country.code)
                .map(|&(_, s)| s)
                .unwrap_or(0.12)
        };
        let tld_second = if cc_headed { com } else { own_cc };
        let tdeps = depmap::tld_foreign_deps(country.code);
        // Large quoted shares are *pinned* head ranks (the paper's numbers
        // decompose the score, e.g. KG: .com 29% + .ru 22% + .kg 12%);
        // small ones stay budget groups.
        let mut tld_pins: Vec<(u32, f64)> = vec![(tld_second, second_share)];
        for &(tcc, share) in &tdeps {
            if let Some(id) = universe.tld_by_label(&tcc.to_ascii_lowercase()) {
                if share >= 0.07 {
                    tld_pins.push((id, share));
                } else {
                    tld_groups.push(Group::new(share, c_total, vec![id]));
                }
            }
        }
        // Global TLDs, then other ccTLDs as filler.
        let global_tlds: Vec<u32> = universe
            .tlds
            .iter()
            .filter(|t| t.kind == TldKind::Global)
            .map(|t| t.id)
            .collect();
        let mut all_cc: Vec<u32> = universe
            .tlds
            .iter()
            .filter(|t| matches!(t.kind, TldKind::Cc(_)))
            .map(|t| t.id)
            .collect();
        // Rotate so the "other ccTLD" tail differs per country.
        let cc_rot = (h % all_cc.len().max(1) as u64) as usize;
        all_cc.rotate_left(cc_rot);
        let tld_head_share = depmap::head_share(country, Layer::Tld);
        let tdep_budget: f64 = tdeps.iter().map(|(_, s)| s).sum();
        tld_groups.push(Group::new(
            (1.0 - tld_head_share - second_share - tdep_budget - 0.03).max(0.05),
            c_total,
            global_tlds,
        ));
        tld_groups.push(Group::new(0.03, c_total, all_cc));
        let picks_tld = tally(pool, &picks, |s| s.tld);
        let tld_pool = 22 + (h % 16) as usize;
        let tld_local_counts = assemble(
            Layer::Tld,
            tld_head,
            tld_pins,
            tld_groups,
            tld_pool,
            &picks_tld,
        );

        // ---- Per-layer owner slots, padded ----
        let pad = |mut slots: Vec<u32>, fallback: u32| -> Vec<u32> {
            // Mixture rounding can leave a few slots short; pad with the
            // layer's head owner.
            while (slots.len() as u64) < n_local {
                slots.push(fallback);
            }
            slots.truncate(n_local as usize);
            slots
        };
        CountryPlan {
            f_g,
            picks,
            host: pad(expand_counts(&host_local), host_head),
            dns: pad(expand_counts(&dns_local_counts), host_head),
            ca: pad(expand_counts(&ca_local_counts), le),
            tld: pad(expand_counts(&tld_local_counts), tld_head),
        }
    }

    /// Forges a plan's local sites onto `sites` and returns the country's
    /// toplist. Runs in country order on the world's one forge, so names
    /// and site indices do not depend on how the plans were scheduled.
    fn materialize_country(
        plan: CountryPlan,
        config: &WorldConfig,
        universe: &Universe,
        country: &CountryRecord,
        forge: &mut DomainForge,
        sites: &mut Vec<Site>,
    ) -> Vec<u32> {
        let CountryPlan {
            f_g,
            picks,
            host: host_slots,
            dns: dns_slots,
            ca: ca_slots,
            tld: tld_slots,
        } = plan;
        let c_total = config.sites_per_country as u64;
        let n_local = tld_slots.len() as u64;
        let language = depmap::language_of(country.code);
        let base_index = sites.len() as u32;
        for i in 0..n_local as usize {
            let tld = tld_slots[i];
            let domain = forge.next(&universe.tld(tld).label);
            sites.push(Site {
                domain,
                tld,
                hosting: host_slots[i],
                dns: dns_slots[i],
                ca: ca_slots[i],
                language: language.clone(),
                is_global: false,
            });
        }

        // Afghanistan's Persian-language coupling (§5.3.3): Persian sites
        // are preferentially the Iran-hosted ones.
        if country.code == "AF" {
            let want_persian = (depmap::AF_PERSIAN_FRACTION * c_total as f64) as usize;
            let mut marked = 0;
            // Pass 1: Iranian-hosted local sites become Persian.
            for i in 0..n_local as usize {
                if marked >= (want_persian as f64 * depmap::AF_PERSIAN_IRAN_HOSTED) as usize {
                    break;
                }
                let s = &mut sites[(base_index + i as u32) as usize];
                if universe.provider(s.hosting).country == "IR" {
                    s.language = "fa".to_string();
                    marked += 1;
                }
            }
            // Pass 2: top up with non-Iranian-hosted sites.
            for i in 0..n_local as usize {
                if marked >= want_persian {
                    break;
                }
                let s = &mut sites[(base_index + i as u32) as usize];
                if s.language != "fa" {
                    s.language = "fa".to_string();
                    marked += 1;
                }
            }
        }

        // Toplist: interleave global picks and local sites with a fixed
        // stride so global sites dominate the head of the ranking.
        let mut toplist: Vec<u32> = Vec::with_capacity(c_total as usize);
        let mut gi = 0usize;
        let mut li = 0u32;
        for rank in 0..c_total {
            let take_global =
                gi < picks.len() && (li as u64 >= n_local || rank as f64 * f_g >= gi as f64);
            if take_global {
                toplist.push(picks[gi]);
                gi += 1;
            } else {
                toplist.push(base_index + li);
                li += 1;
            }
        }
        toplist
    }

    /// Ground-truth per-owner counts for a country's layer.
    pub fn layer_counts(&self, country_idx: usize, layer: Layer) -> Vec<(u32, u64)> {
        let key = |s: &Site| match layer {
            Layer::Hosting => s.hosting,
            Layer::Dns => s.dns,
            Layer::Ca => s.ca,
            Layer::Tld => s.tld,
        };
        let m = tally(&self.sites, &self.toplists[country_idx], key);
        let mut v: Vec<(u32, u64)> = m.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Ground-truth centralization score for a country's layer.
    pub fn achieved_score(&self, country_idx: usize, layer: Layer) -> f64 {
        let counts: Vec<u64> = self
            .layer_counts(country_idx, layer)
            .into_iter()
            .map(|(_, c)| c)
            .collect();
        webdep_core::centralization::centralization_score_counts_ref(&counts).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::generate(WorldConfig::tiny())
    }

    #[test]
    fn generates_all_toplists() {
        let w = world();
        assert_eq!(w.toplists.len(), 150);
        for (i, t) in w.toplists.iter().enumerate() {
            assert_eq!(
                t.len(),
                w.config.sites_per_country as usize,
                "country {}",
                COUNTRIES[i].code
            );
        }
        assert!(!w.global_top.is_empty());
    }

    #[test]
    fn deterministic_for_seed() {
        let a = World::generate(WorldConfig::tiny());
        let b = World::generate(WorldConfig::tiny());
        assert_eq!(a.sites.len(), b.sites.len());
        assert_eq!(a.sites[..50], b.sites[..50]);
        assert_eq!(a.toplists[0], b.toplists[0]);
    }

    #[test]
    fn domains_unique() {
        let w = world();
        let mut names: Vec<&str> = w.sites.iter().map(|s| s.domain.as_str()).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn scores_close_to_paper_targets() {
        // Tiny scale is coarse; check a tolerance that scales with C and
        // assert the big orderings hold.
        let w = world();
        let th = World::country_index("TH").unwrap();
        let ir = World::country_index("IR").unwrap();
        let us = World::country_index("US").unwrap();
        let s_th = w.achieved_score(th, Layer::Hosting);
        let s_ir = w.achieved_score(ir, Layer::Hosting);
        let s_us = w.achieved_score(us, Layer::Hosting);
        assert!(s_th > s_us && s_us > s_ir, "{s_th} {s_us} {s_ir}");
        assert!((s_th - 0.3548).abs() < 0.06, "{s_th}");
        assert!((s_ir - 0.0411).abs() < 0.04, "{s_ir}");
    }

    #[test]
    fn cloudflare_heads_almost_everywhere() {
        let w = world();
        let cf = w.universe.provider_by_name("Cloudflare").unwrap();
        let amazon = w.universe.provider_by_name("Amazon").unwrap();
        for (ci, c) in COUNTRIES.iter().enumerate() {
            let counts = w.layer_counts(ci, Layer::Hosting);
            let head = counts[0].0;
            if c.code == "JP" {
                assert_eq!(head, amazon, "JP should be Amazon-headed");
            } else {
                assert_eq!(
                    head,
                    cf,
                    "{} head {}",
                    c.code,
                    w.universe.provider(head).name
                );
            }
        }
    }

    #[test]
    fn tm_depends_on_russia() {
        let w = world();
        let tm = World::country_index("TM").unwrap();
        let counts = w.layer_counts(tm, Layer::Hosting);
        let total: u64 = counts.iter().map(|&(_, c)| c).sum();
        let ru_share: f64 = counts
            .iter()
            .filter(|&&(id, _)| w.universe.provider(id).country == "RU")
            .map(|&(_, c)| c as f64)
            .sum::<f64>()
            / total as f64;
        assert!(
            (0.18..0.45).contains(&ru_share),
            "RU share in TM: {ru_share}"
        );
    }

    #[test]
    fn us_hosting_is_insular() {
        let w = world();
        let us = World::country_index("US").unwrap();
        let counts = w.layer_counts(us, Layer::Hosting);
        let total: u64 = counts.iter().map(|&(_, c)| c).sum();
        let us_share: f64 = counts
            .iter()
            .filter(|&&(id, _)| w.universe.provider(id).country == "US")
            .map(|&(_, c)| c as f64)
            .sum::<f64>()
            / total as f64;
        assert!(us_share > 0.75, "US insularity {us_share}");
    }

    #[test]
    fn afghan_persian_sites_lean_on_iran() {
        let w = world();
        let af = World::country_index("AF").unwrap();
        let toplist = &w.toplists[af];
        let persian: Vec<&Site> = toplist
            .iter()
            .map(|&i| &w.sites[i as usize])
            .filter(|s| s.language == "fa")
            .collect();
        let frac = persian.len() as f64 / toplist.len() as f64;
        assert!((0.2..0.45).contains(&frac), "persian fraction {frac}");
        let ir_hosted = persian
            .iter()
            .filter(|s| w.universe.provider(s.hosting).country == "IR")
            .count();
        let ir_frac = ir_hosted as f64 / persian.len().max(1) as f64;
        assert!(ir_frac > 0.35, "IR-hosted persian {ir_frac}");
    }

    #[test]
    fn us_tld_is_com_headed_and_germany_cc_headed() {
        let w = world();
        let us = World::country_index("US").unwrap();
        let de = World::country_index("DE").unwrap();
        let com = w.universe.tld_by_label("com").unwrap();
        let de_tld = w.universe.tld_by_label("de").unwrap();
        assert_eq!(w.layer_counts(us, Layer::Tld)[0].0, com);
        assert_eq!(w.layer_counts(de, Layer::Tld)[0].0, de_tld);
        // US .com share ~77%.
        let counts = w.layer_counts(us, Layer::Tld);
        let total: u64 = counts.iter().map(|&(_, c)| c).sum();
        let com_share = counts[0].1 as f64 / total as f64;
        assert!((0.65..0.85).contains(&com_share), "{com_share}");
    }

    #[test]
    fn ca_universe_use_is_bounded() {
        let w = world();
        for ci in [0usize, 50, 100, 149] {
            let counts = w.layer_counts(ci, Layer::Ca);
            assert!(counts.len() <= 45);
            // Let's Encrypt or another L-GP heads every country.
            let head_ca = w.universe.ca(counts[0].0);
            assert_eq!(
                head_ca.tier,
                crate::provider::ProviderTier::LargeGlobal,
                "{}: {}",
                COUNTRIES[ci].code,
                head_ca.name
            );
        }
    }

    #[test]
    fn dominant_regional_runner_up_anchored() {
        // §5.2: SuperHosting.BG and UAB come second behind Cloudflare with
        // a large share, without outranking it.
        let w = world();
        for (code, provider) in [("BG", "SuperHosting.BG"), ("LT", "UAB Interneto vizija")] {
            let ci = World::country_index(code).unwrap();
            let counts = w.layer_counts(ci, Layer::Hosting);
            let total: u64 = counts.iter().map(|&(_, c)| c).sum();
            let cf = w.universe.provider_by_name("Cloudflare").unwrap();
            let anchor = w.universe.provider_by_name(provider).unwrap();
            assert_eq!(counts[0].0, cf, "{code} head must stay Cloudflare");
            assert_eq!(
                counts[1].0,
                anchor,
                "{code} rank 2 must be {provider}, got {}",
                w.universe.provider(counts[1].0).name
            );
            let share = counts[1].1 as f64 / total as f64;
            assert!(
                (0.10..0.30).contains(&share),
                "{code} runner-up share {share}"
            );
        }
    }

    #[test]
    fn asseco_anchored_in_poland_and_iran() {
        let w = world();
        let asseco = w.universe.ca_by_name("Asseco").unwrap();
        for code in ["PL", "IR"] {
            let ci = World::country_index(code).unwrap();
            let counts = w.layer_counts(ci, Layer::Ca);
            let total: u64 = counts.iter().map(|&(_, c)| c).sum();
            let share = counts
                .iter()
                .find(|&&(id, _)| id == asseco)
                .map(|&(_, c)| c as f64 / total as f64)
                .unwrap_or(0.0);
            assert!(
                (0.08..0.30).contains(&share),
                "{code}: Asseco share {share}"
            );
        }
    }

    #[test]
    fn coverage_stays_under_the_papers_bound() {
        // §5.1: 90% of websites are hosted by fewer than 206 providers in
        // every country.
        let w = world();
        for (ci, country) in COUNTRIES.iter().enumerate() {
            let counts: Vec<u64> = w
                .layer_counts(ci, Layer::Hosting)
                .into_iter()
                .map(|(_, c)| c)
                .collect();
            let d = webdep_core::CountDist::from_counts(counts).unwrap();
            assert!(
                d.providers_to_cover(0.90) < 206,
                "{}: {}",
                country.code,
                d.providers_to_cover(0.90)
            );
        }
    }

    #[test]
    fn global_sites_shared_across_countries() {
        let w = world();
        let us = World::country_index("US").unwrap();
        let de = World::country_index("DE").unwrap();
        let us_globals: std::collections::HashSet<u32> = w.toplists[us]
            .iter()
            .copied()
            .filter(|&i| w.sites[i as usize].is_global)
            .collect();
        let de_globals: std::collections::HashSet<u32> = w.toplists[de]
            .iter()
            .copied()
            .filter(|&i| w.sites[i as usize].is_global)
            .collect();
        assert!(!us_globals.is_empty() && !de_globals.is_empty());
        let shared = us_globals.intersection(&de_globals).count();
        assert!(shared > 0, "countries must share popular global sites");
    }
}
