//! Route table and JSON responders.
//!
//! Every successful body is rendered from exactly one [`CubeSnapshot`] and
//! stamps that snapshot's `epoch` (and world `label`) into the JSON, so a
//! response can never mix data from two epochs. Cacheable routes first
//! build a *canonical* key — query parameters normalized and defaults
//! applied — so `/v1/score/us` and `/v1/score/US?replicates=200` share one
//! cache entry. Error responses are never cached.
//!
//! The responders call the same `webdep-analysis` functions the one-shot
//! report uses ([`webdep_analysis::insularity::dependence_shares`],
//! [`AnalysisCtx::score_ci`], [`webdep_analysis::coverage_model`], …);
//! serving must not fork the analysis math — the consistency test diffs
//! served numbers against a directly-built context.

use crate::cache::ResponseCache;
use crate::http::{error_body, Request};
use crate::snapshot::CubeSnapshot;
use serde_json::Value;
use std::sync::Arc;
use webdep_analysis::insularity::{country_insularity, dependence_shares};
use webdep_analysis::{coverage_model, AnalysisCtx};
use webdep_core::{centralization_score, ConcentrationBand};
use webdep_stats::BootstrapScratch;
use webdep_webgen::{Layer, World, COUNTRIES};

/// A per-request soft budget. Expensive responders (bootstrap CIs) poll
/// the deadline between replicate chunks and abort with `503` instead of
/// wedging a worker; cheap responders ignore it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Budget {
    /// Absolute deadline; `None` means unlimited.
    pub deadline: Option<std::time::Instant>,
}

impl Budget {
    /// A budget with no deadline (tests, CLI one-shots).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// A budget expiring `after` from now.
    pub fn expiring(after: std::time::Duration) -> Self {
        Budget {
            deadline: std::time::Instant::now().checked_add(after),
        }
    }

    fn expired(&self) -> bool {
        self.deadline
            .is_some_and(|d| std::time::Instant::now() >= d)
    }
}

/// A responder ran past its [`Budget`] deadline and was aborted.
struct DeadlineExceeded;

/// Default bootstrap replicates for CI-bearing routes.
pub const DEFAULT_REPLICATES: usize = 200;
/// Default bootstrap seed (matches the report suite's fixed seed).
pub const DEFAULT_SEED: u64 = 42;
/// Default confidence level.
pub const DEFAULT_LEVEL: f64 = 0.95;

/// A routed response: status, rendered JSON body, whether the response
/// cache supplied it, and the route label for telemetry.
pub struct Routed {
    /// HTTP status code.
    pub status: u16,
    /// JSON body bytes (shared with the cache on hits).
    pub body: Arc<Vec<u8>>,
    /// Whether this body came from the response cache.
    pub cache_hit: bool,
    /// Metrics label: the matched route name, or `"other"` for unmatched
    /// paths (bounded so hostile traffic cannot mint unbounded series).
    pub route: &'static str,
    /// Whether this response is a `503` from a deadline-aborted responder
    /// (the server counts these separately from load sheds).
    pub deadline_abort: bool,
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn vs(s: &str) -> Value {
    Value::String(s.to_string())
}

fn routed_err(route: &'static str, status: u16, reason: &str) -> Routed {
    Routed {
        status,
        body: Arc::new(error_body(status, reason)),
        cache_hit: false,
        route,
        deadline_abort: false,
    }
}

struct Query {
    layer: Layer,
    replicates: usize,
    seed: u64,
    level: f64,
    top: usize,
}

/// Parses and normalizes the query parameters every route shares,
/// rejecting unknown layers and non-numeric values.
fn parse_query(req: &Request) -> Result<Query, String> {
    let layer = match req.param("layer") {
        None => Layer::Hosting,
        Some(name) => parse_layer(name).ok_or_else(|| format!("unknown layer '{name}'"))?,
    };
    let replicates = match req.param("replicates") {
        None => DEFAULT_REPLICATES,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("bad replicates '{v}'"))?,
    };
    if replicates > 100_000 {
        return Err(format!("replicates {replicates} exceeds limit 100000"));
    }
    let seed = match req.param("seed") {
        None => DEFAULT_SEED,
        Some(v) => v.parse::<u64>().map_err(|_| format!("bad seed '{v}'"))?,
    };
    let level = match req.param("level") {
        None => DEFAULT_LEVEL,
        Some(v) => {
            let x = v.parse::<f64>().map_err(|_| format!("bad level '{v}'"))?;
            if !(x > 0.0 && x < 1.0) {
                return Err(format!("level {x} outside (0, 1)"));
            }
            x
        }
    };
    let top = match req.param("top").or_else(|| req.param("n")) {
        None => 10,
        Some(v) => v.parse::<usize>().map_err(|_| format!("bad top '{v}'"))?,
    };
    Ok(Query {
        layer,
        replicates,
        seed,
        level,
        top,
    })
}

fn parse_layer(name: &str) -> Option<Layer> {
    match name.to_ascii_lowercase().as_str() {
        "hosting" => Some(Layer::Hosting),
        "dns" => Some(Layer::Dns),
        "ca" => Some(Layer::Ca),
        "tld" => Some(Layer::Tld),
        _ => None,
    }
}

fn country_of(segment: &str) -> Result<(usize, String), String> {
    let code = segment.to_ascii_uppercase();
    match World::country_index(&code) {
        Some(ci) => Ok((ci, code)),
        None => Err(format!("unknown country '{segment}'")),
    }
}

/// Routes a parsed request against a snapshot, consulting (and filling)
/// the response cache for cacheable routes. The `budget`'s deadline bounds
/// expensive cube work; pass [`Budget::unlimited`] where no deadline
/// applies.
pub fn handle(req: &Request, snap: &CubeSnapshot, cache: &ResponseCache, budget: Budget) -> Routed {
    let mut segs = req.path.split('/').filter(|s| !s.is_empty());
    let (head, rest): (Option<&str>, Vec<&str>) = {
        let h = segs.next();
        (h, segs.collect())
    };
    match (head, rest.as_slice()) {
        (Some("healthz"), []) => Routed {
            status: 200,
            body: Arc::new(
                obj(vec![
                    ("status", vs("ok")),
                    ("epoch", Value::U64(snap.epoch)),
                ])
                .to_string()
                .into_bytes(),
            ),
            cache_hit: false,
            route: "healthz",
            deadline_abort: false,
        },
        (Some("v1"), tail) => route_v1(req, tail, snap, cache, budget),
        _ => routed_err("other", 404, "no such route"),
    }
}

/// The telemetry label a path would be answered under, without dispatching
/// it — what the shed path stamps on its `503` so per-route counters stay
/// truthful even for requests that never reach a responder.
pub fn route_label(path: &str) -> &'static str {
    let segs: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match segs.as_slice() {
        ["healthz"] => "healthz",
        ["metrics"] => "metrics",
        ["v1", tail @ ..] => v1_label(tail),
        _ => "other",
    }
}

/// The telemetry label for a `/v1` tail: the route's own name when the
/// shape matches a known route, `"other"` otherwise.
fn v1_label(tail: &[&str]) -> &'static str {
    match tail {
        ["meta"] => "meta",
        ["countries"] => "countries",
        ["score", _] => "score",
        ["ci", _] => "ci",
        ["shares", _] => "shares",
        ["insularity", _] => "insularity",
        ["badge", _] => "badge",
        ["top"] => "top",
        ["coverage"] => "coverage",
        ["taxonomy"] => "taxonomy",
        ["trajectory"] => "trajectory",
        _ => "other",
    }
}

/// A route resolution: the canonical cache key plus the deferred
/// responder that renders the body on a cache miss (or reports that it ran
/// past the request [`Budget`]).
type Resolved = (
    String,
    Box<dyn FnOnce(&CubeSnapshot) -> Result<Value, DeadlineExceeded>>,
);

fn route_v1(
    req: &Request,
    tail: &[&str],
    snap: &CubeSnapshot,
    cache: &ResponseCache,
    budget: Budget,
) -> Routed {
    let route = v1_label(tail);
    let q = match parse_query(req) {
        Ok(q) => q,
        Err(reason) => return routed_err(route, 400, &reason),
    };
    // (canonical cache key, responder) per route; unknown → 404.
    let build: Result<Resolved, Routed> = match tail {
        ["meta"] => Ok((
            "meta".to_string(),
            Box::new(|s: &CubeSnapshot| Ok(meta_body(s))),
        )),
        ["countries"] => Ok((
            "countries".to_string(),
            Box::new(|s: &CubeSnapshot| Ok(countries_body(s))),
        )),
        ["score", cc] => match country_of(cc) {
            Ok((ci, code)) => Ok((
                format!(
                    "score/{code}/{}/r{}/s{}/l{}",
                    q.layer.name(),
                    q.replicates,
                    q.seed,
                    q.level
                ),
                Box::new(move |s| score_body(s, ci, &code, &q, budget)),
            )),
            Err(reason) => return routed_err(route, 404, &reason),
        },
        ["ci", cc] => match country_of(cc) {
            Ok((ci, code)) => Ok((
                format!(
                    "ci/{code}/{}/r{}/s{}/l{}",
                    q.layer.name(),
                    q.replicates,
                    q.seed,
                    q.level
                ),
                Box::new(move |s| ci_body(s, ci, &code, &q, budget)),
            )),
            Err(reason) => return routed_err(route, 404, &reason),
        },
        ["shares", cc] => match country_of(cc) {
            Ok((ci, code)) => Ok((
                format!("shares/{code}/{}/t{}", q.layer.name(), q.top),
                Box::new(move |s| Ok(shares_body(s, ci, &code, &q))),
            )),
            Err(reason) => return routed_err(route, 404, &reason),
        },
        ["insularity", cc] => match country_of(cc) {
            Ok((ci, code)) => Ok((
                format!("insularity/{code}/{}", q.layer.name()),
                Box::new(move |s| Ok(insularity_body(s, ci, &code, &q))),
            )),
            Err(reason) => return routed_err(route, 404, &reason),
        },
        ["badge", cc] => match country_of(cc) {
            Ok((ci, code)) => Ok((
                format!("badge/{code}/r{}/s{}/l{}", q.replicates, q.seed, q.level),
                Box::new(move |s| badge_body(s, ci, &code, &q, budget)),
            )),
            Err(reason) => return routed_err(route, 404, &reason),
        },
        ["top"] => Ok((
            format!("top/{}/t{}", q.layer.name(), q.top),
            Box::new(move |s| Ok(top_body(s, &q))),
        )),
        ["coverage"] => Ok((
            "coverage".to_string(),
            Box::new(|s: &CubeSnapshot| Ok(coverage_body(s))),
        )),
        ["taxonomy"] => Ok((
            "taxonomy".to_string(),
            Box::new(|s: &CubeSnapshot| Ok(taxonomy_body(s))),
        )),
        ["trajectory"] => Ok((
            "trajectory".to_string(),
            Box::new(|s: &CubeSnapshot| Ok(trajectory_body(s))),
        )),
        _ => return routed_err(route, 404, "no such route"),
    };
    let (key, responder) = match build {
        Ok(pair) => pair,
        Err(routed) => return routed,
    };
    if let Some(body) = cache.get(snap.epoch, &key) {
        return Routed {
            status: 200,
            body,
            cache_hit: true,
            route,
            deadline_abort: false,
        };
    }
    let mut value = match responder(snap) {
        Ok(v) => v,
        Err(DeadlineExceeded) => {
            let mut routed = routed_err(route, 503, "deadline exceeded");
            routed.deadline_abort = true;
            return routed;
        }
    };
    stamp(&mut value, snap);
    let body = Arc::new(value.to_string().into_bytes());
    cache.insert(snap.epoch, &key, Arc::clone(&body));
    Routed {
        status: 200,
        body,
        cache_hit: false,
        route,
        deadline_abort: false,
    }
}

/// Prepends the epoch and world label so every body names its snapshot.
fn stamp(value: &mut Value, snap: &CubeSnapshot) {
    if let Value::Object(entries) = value {
        entries.insert(0, ("label".to_string(), vs(&snap.world.label)));
        entries.insert(0, ("epoch".to_string(), Value::U64(snap.epoch)));
    }
}

fn meta_body(snap: &CubeSnapshot) -> Value {
    obj(vec![
        ("sites", Value::U64(snap.world.sites.len() as u64)),
        ("countries", Value::U64(COUNTRIES.len() as u64)),
        (
            "layers",
            Value::Array(Layer::ALL.iter().map(|l| vs(l.name())).collect()),
        ),
        ("taxonomy_total", Value::U64(snap.taxonomy.total)),
    ])
}

fn countries_body(_snap: &CubeSnapshot) -> Value {
    obj(vec![(
        "countries",
        Value::Array(
            COUNTRIES
                .iter()
                .map(|c| {
                    obj(vec![
                        ("code", vs(c.code)),
                        ("name", vs(c.name)),
                        ("continent", vs(c.continent.code())),
                        ("subregion", vs(c.subregion)),
                    ])
                })
                .collect(),
        ),
    )])
}

/// The per-country score panel: 𝒮, DoJ band, provider-count facts, and
/// (for `replicates > 0`) a bootstrap CI — the same math as the report's
/// layer table row.
fn score_body(
    snap: &CubeSnapshot,
    ci: usize,
    code: &str,
    q: &Query,
    budget: Budget,
) -> Result<Value, DeadlineExceeded> {
    let ctx = snap.ctx();
    let mut entries = vec![("country", vs(code)), ("layer", vs(q.layer.name()))];
    match ctx.country_dist(ci, q.layer) {
        Some(dist) => {
            let s = centralization_score(dist);
            entries.push(("s", Value::F64(s)));
            entries.push(("band", vs(ConcentrationBand::classify(s).label())));
            entries.push(("num_providers", Value::U64(dist.num_providers() as u64)));
            entries.push(("top_share", Value::F64(dist.top_share())));
            entries.push((
                "providers_for_90pct",
                Value::U64(dist.providers_to_cover(0.90) as u64),
            ));
        }
        None => {
            entries.push(("s", Value::Null));
            entries.push(("band", Value::Null));
        }
    }
    entries.push(("coverage", Value::F64(ctx.country_coverage(ci, q.layer))));
    entries.push(("ci", ci_value(&ctx, ci, q, budget)?));
    Ok(obj(entries))
}

/// The bootstrap-CI fragment shared by `score`, `ci`, and `badge` bodies.
/// Runs through the abortable bootstrap so a request past its budget sheds
/// instead of finishing the replicates; a completed interval is
/// bit-identical to the unbudgeted one (same per-replicate seeding).
fn ci_value(
    ctx: &AnalysisCtx<'_>,
    ci: usize,
    q: &Query,
    budget: Budget,
) -> Result<Value, DeadlineExceeded> {
    if q.replicates == 0 {
        return Ok(Value::Null);
    }
    let mut scratch = BootstrapScratch::new();
    match ctx.score_ci_abortable(
        ci,
        q.layer,
        q.replicates,
        q.level,
        q.seed,
        &mut scratch,
        &mut || budget.expired(),
    ) {
        Ok(Some(b)) => Ok(obj(vec![
            ("point", Value::F64(b.point)),
            ("lo", Value::F64(b.lo)),
            ("hi", Value::F64(b.hi)),
            ("replicates", Value::U64(b.replicates as u64)),
            ("level", Value::F64(q.level)),
            ("seed", Value::U64(q.seed)),
        ])),
        Ok(None) => Ok(Value::Null),
        Err(_) => Err(DeadlineExceeded),
    }
}

fn ci_body(
    snap: &CubeSnapshot,
    ci: usize,
    code: &str,
    q: &Query,
    budget: Budget,
) -> Result<Value, DeadlineExceeded> {
    let ctx = snap.ctx();
    Ok(obj(vec![
        ("country", vs(code)),
        ("layer", vs(q.layer.name())),
        ("ci", ci_value(&ctx, ci, q, budget)?),
    ]))
}

/// Per-country dependence shares (provider-country → share), truncated to
/// the requested `top` length.
fn shares_body(snap: &CubeSnapshot, ci: usize, code: &str, q: &Query) -> Value {
    let ctx = snap.ctx();
    let shares = dependence_shares(&ctx, ci, q.layer);
    let truncated = shares.len() > q.top;
    obj(vec![
        ("country", vs(code)),
        ("layer", vs(q.layer.name())),
        ("total_countries", Value::U64(shares.len() as u64)),
        ("truncated", Value::Bool(truncated)),
        (
            "shares",
            Value::Array(
                shares
                    .iter()
                    .take(q.top)
                    .map(|(cc, share)| {
                        obj(vec![("country", vs(cc)), ("share", Value::F64(*share))])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn insularity_body(snap: &CubeSnapshot, ci: usize, code: &str, q: &Query) -> Value {
    let ctx = snap.ctx();
    let ins = country_insularity(&ctx, ci, q.layer);
    obj(vec![
        ("country", vs(code)),
        ("layer", vs(q.layer.name())),
        ("insularity", ins.map(Value::F64).unwrap_or(Value::Null)),
    ])
}

/// The badge: one call summarizing a country across all four layers, with
/// a bootstrap CI on the hosting score (the paper's headline layer).
fn badge_body(
    snap: &CubeSnapshot,
    ci: usize,
    code: &str,
    q: &Query,
    budget: Budget,
) -> Result<Value, DeadlineExceeded> {
    let ctx = snap.ctx();
    let mut layers = Vec::new();
    for layer in Layer::ALL {
        let mut entries = vec![("layer", vs(layer.name()))];
        match ctx.country_dist(ci, layer) {
            Some(dist) => {
                let s = centralization_score(dist);
                entries.push(("s", Value::F64(s)));
                entries.push(("band", vs(ConcentrationBand::classify(s).label())));
            }
            None => {
                entries.push(("s", Value::Null));
                entries.push(("band", Value::Null));
            }
        }
        entries.push((
            "insularity",
            country_insularity(&ctx, ci, layer)
                .map(Value::F64)
                .unwrap_or(Value::Null),
        ));
        entries.push(("coverage", Value::F64(ctx.country_coverage(ci, layer))));
        layers.push(obj(entries));
    }
    let hosting_q = Query {
        layer: Layer::Hosting,
        ..*q
    };
    Ok(obj(vec![
        ("country", vs(code)),
        ("name", vs(COUNTRIES[ci].name)),
        ("layers", Value::Array(layers)),
        ("hosting_ci", ci_value(&ctx, ci, &hosting_q, budget)?),
    ]))
}

/// The global-top panel: leading owners on the worldwide toplist at a
/// layer, plus the global centralization score (Figure 12's marker).
fn top_body(snap: &CubeSnapshot, q: &Query) -> Value {
    let ctx = snap.ctx();
    let counts = ctx.global_counts(q.layer);
    let total: u64 = counts.iter().map(|&(_, c)| c).sum();
    let owners: Vec<Value> = counts
        .iter()
        .take(q.top)
        .map(|&(owner, count)| {
            obj(vec![
                ("name", vs(ctx.owner_name(q.layer, owner))),
                (
                    "country",
                    ctx.owner_country(q.layer, owner)
                        .map(vs)
                        .unwrap_or(Value::Null),
                ),
                ("count", Value::U64(count)),
                (
                    "share",
                    if total == 0 {
                        Value::Null
                    } else {
                        Value::F64(count as f64 / total as f64)
                    },
                ),
            ])
        })
        .collect();
    obj(vec![
        ("layer", vs(q.layer.name())),
        ("total", Value::U64(total)),
        ("owners", Value::Array(owners)),
        (
            "global_s",
            webdep_analysis::centralization::global_top_score(&ctx, q.layer)
                .map(Value::F64)
                .unwrap_or(Value::Null),
        ),
    ])
}

fn coverage_body(snap: &CubeSnapshot) -> Value {
    let ctx = snap.ctx();
    let model = coverage_model(&ctx);
    let layers: Vec<Value> = model
        .layers
        .iter()
        .map(|lc| {
            let min = lc.min_country();
            obj(vec![
                ("layer", vs(lc.layer_name)),
                ("observed", Value::U64(lc.observed)),
                ("expected", Value::U64(lc.expected)),
                ("fraction", Value::F64(lc.fraction())),
                (
                    "min_country",
                    min.map(|(code, _)| vs(code)).unwrap_or(Value::Null),
                ),
                (
                    "min_coverage",
                    min.map(|(_, f)| Value::F64(f)).unwrap_or(Value::Null),
                ),
                ("dark_countries", Value::U64(lc.dark_countries() as u64)),
            ])
        })
        .collect();
    obj(vec![("layers", Value::Array(layers))])
}

/// The per-epoch centralization trajectory carried on the snapshot: one
/// point per published epoch up to this one, with drift and changepoint
/// flags. Epoch-consistent by construction — the points ride the same
/// snapshot every other route reads.
fn trajectory_body(snap: &CubeSnapshot) -> Value {
    let points: Vec<Value> = snap
        .trajectory
        .points
        .iter()
        .map(|p| {
            obj(vec![
                ("epoch", Value::U64(p.epoch as u64)),
                ("label", vs(&p.label)),
                ("mean_score", Value::F64(p.mean_score)),
                ("mean_cloudflare_pct", Value::F64(p.mean_cloudflare_pct)),
                ("drift", Value::F64(p.drift)),
                ("changepoint", Value::Bool(p.changepoint)),
            ])
        })
        .collect();
    obj(vec![
        ("epochs", Value::U64(points.len() as u64)),
        ("points", Value::Array(points)),
    ])
}

fn taxonomy_body(snap: &CubeSnapshot) -> Value {
    let tax = &snap.taxonomy;
    let layers: Vec<(String, Value)> = tax
        .counts
        .iter()
        .map(|(layer, causes)| {
            (
                layer.clone(),
                Value::Object(
                    causes
                        .iter()
                        .map(|(cause, n)| (cause.clone(), Value::U64(*n)))
                        .collect(),
                ),
            )
        })
        .collect();
    obj(vec![
        ("total", Value::U64(tax.total)),
        ("clean", Value::U64(tax.clean)),
        ("failures", Value::Object(layers)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{parse_head, Limits, ParseOutcome};
    use proptest::prelude::*;

    /// Every route, a route with an unknown country, and unknown paths.
    const PATHS: [&str; 15] = [
        "/healthz",
        "/v1/meta",
        "/v1/countries",
        "/v1/score/US",
        "/v1/ci/DE",
        "/v1/shares/TH",
        "/v1/insularity/BR",
        "/v1/badge/JP",
        "/v1/top",
        "/v1/coverage",
        "/v1/taxonomy",
        "/v1/trajectory",
        "/v1/score/ZZ",
        "/v1/nope",
        "/elsewhere",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any printable query string on any route parses and routes to a
        /// 2xx or 4xx, never a panic or a 5xx.
        #[test]
        fn arbitrary_queries_answer_2xx_or_4xx(
            query in prop::string::string_regex("[ -~]{0,64}").unwrap(),
        ) {
            let snap = crate::snapshot::tests::fixture();
            let cache = ResponseCache::new(64);
            for path in PATHS {
                let raw = format!("GET {path}?{query} HTTP/1.1\r\nHost: t\r\n\r\n");
                let status = match parse_head(raw.as_bytes(), &Limits::default()) {
                    ParseOutcome::Complete { request, .. } => {
                        handle(&request, snap, &cache, Budget::unlimited()).status
                    }
                    ParseOutcome::Error(e) => e.status(),
                    ParseOutcome::Partial => panic!("{raw:?}: a whole head parsed as partial"),
                };
                prop_assert!(
                    (200..300).contains(&status) || (400..500).contains(&status),
                    "{raw:?} answered {status}"
                );
            }
        }
    }
}
