//! `webdep` — command-line interface to the dependence toolkit.
//!
//! ```text
//! webdep score 60 20 10 5 5        # S / HHI / top-N for raw counts
//! webdep country DE [tiny|small]   # one country's full dependence profile
//! webdep tables [tiny|small]       # the four layer tables
//! webdep experiments [tiny|small]  # the paper-vs-measured suite
//! webdep measure [tiny|small]                      # scratch-store run, accounting only
//! webdep measure small --store chunks/             # keep the store
//! webdep measure small --store chunks/ --resume    # finish a crashed run, heal the store
//! webdep serve [tiny|small] --addr 127.0.0.1:8439   # measure, then serve
//! webdep serve small --store chunks/               # serve a chunked store
//! webdep evolve 4 tiny --churn 0.1                 # continuous epochs, delta re-measure
//! webdep evolve 4 tiny --serve-addr 127.0.0.1:8439 # …published live per epoch
//! webdep fsck chunks/ --repair                     # verify, quarantine corrupt layers
//! ```
//!
//! The heavier subcommands generate, deploy, and measure a synthetic world
//! (seconds at `tiny`, ~1 minute at `small`). Every measurement streams
//! into a chunked columnar store; a subcommand given no `--store` measures
//! into a scratch store under the temp directory
//! (`webdep-<command>-<pid>`), reads what it needs from it and removes it.
//! `measure` runs just the measurement pipeline and prints its
//! supervision/throughput accounting. With `--store` the store is kept,
//! and `--resume` finishes a crashed run or heals a damaged store: every
//! chunk that verifies is kept, a corrupt one is quarantined, and the
//! sites of the rest are measured again (the healed store is
//! byte-identical to an uninterrupted run's). `fsck --repair` only
//! quarantines corrupt layers; `measure --resume` then brings them back.

use std::io;
use std::path::Path;
use webdep::analysis::centralization::layer_table;
use webdep::analysis::insularity::{dependence_shares, insularity_table};
use webdep::analysis::report;
use webdep::analysis::{AnalysisCtx, ExperimentSuite};
use webdep::core::centralization::{centralization_score, hhi, ConcentrationBand};
use webdep::core::dist::CountDist;
use webdep::core::topn::top_n_share;
use webdep::pipeline::{
    measure_streamed, resume_streamed_with, ChunkStore, MeasuredDataset, PipelineConfig,
};
use webdep::webgen::{DeployConfig, DeployedWorld, Layer, World, WorldConfig};

fn usage() -> ! {
    eprintln!(
        "usage:\n  webdep score <count> [count ...]\n  webdep country <CC> [tiny|small]\n  webdep tables [tiny|small]\n  webdep experiments [tiny|small]\n  webdep measure [tiny|small] [--store <dir> [--resume]]\n  webdep serve [tiny|small] [--addr <ip:port>] [--threads <n>] [--store <dir> | --world-seed <seed>]\n  webdep evolve <n-epochs> [tiny|small] [--churn <frac>] [--store <dir>] [--serve-addr <ip:port>] [--workers <n>]\n  webdep fsck <store-dir> [--repair]"
    );
    std::process::exit(2);
}

fn scale_config(arg: Option<&str>) -> WorldConfig {
    match arg.unwrap_or("tiny") {
        "tiny" => WorldConfig::tiny(),
        "small" => WorldConfig::small(),
        "paper" => WorldConfig::paper(),
        other => {
            eprintln!("unknown scale {other:?} (tiny | small | paper)");
            std::process::exit(2);
        }
    }
}

/// Runs `build` over a scratch store directory under the temp directory
/// (`webdep-<command>-<pid>`) and removes the directory, whatever the
/// outcome; exits 1 on an error.
fn in_scratch_store<T>(command: &str, build: impl FnOnce(&Path) -> io::Result<T>) -> T {
    let dir = std::env::temp_dir().join(format!("webdep-{command}-{}", std::process::id()));
    let built = build(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    built.unwrap_or_else(|e| {
        eprintln!("store error: {e}");
        std::process::exit(1);
    })
}

/// A generated world and its measured dataset, read back from a scratch
/// store.
fn measured(command: &str, config: WorldConfig) -> (World, MeasuredDataset) {
    let world = World::generate(config);
    let dep = DeployedWorld::deploy(&world, DeployConfig::default());
    let ds = in_scratch_store(command, |dir| {
        measure_streamed(&world, &dep, &PipelineConfig::default(), dir, None)?;
        ChunkStore::open(dir)?.load_dataset(&world)
    });
    (world, ds)
}

fn cmd_score(args: &[String]) {
    let counts: Vec<u64> = args
        .iter()
        .map(|a| {
            a.parse().unwrap_or_else(|_| {
                eprintln!("not a count: {a:?}");
                std::process::exit(2);
            })
        })
        .collect();
    let Ok(dist) = CountDist::from_counts(counts) else {
        eprintln!("need at least one positive count");
        std::process::exit(2);
    };
    let s = centralization_score(&dist);
    println!("C                  = {}", dist.total());
    println!("providers          = {}", dist.num_providers());
    println!("S (centralization) = {s:.6}");
    println!("HHI                = {:.6}", hhi(&dist));
    println!(
        "DoJ band           = {}",
        ConcentrationBand::classify(hhi(&dist)).label()
    );
    for n in [1usize, 5, 10] {
        println!("top-{n:<2} share       = {:.4}", top_n_share(&dist, n));
    }
    println!(
        "90% coverage       = {} providers",
        dist.providers_to_cover(0.90)
    );
}

fn cmd_country(code: &str, scale: Option<&str>) {
    let Some(ci) = World::country_index(&code.to_ascii_uppercase()) else {
        eprintln!("unknown country code {code:?} (need one of the paper's 150)");
        std::process::exit(2);
    };
    let (world, ds) = measured("country", scale_config(scale));
    let ctx = AnalysisCtx::new(&world, &ds);
    let record = &webdep::webgen::COUNTRIES[ci];
    println!(
        "{} ({}) — {} / {}",
        record.name,
        record.code,
        record.subregion,
        record.continent.code()
    );
    for layer in Layer::ALL {
        let Some(dist) = ctx.country_dist(ci, layer) else {
            continue;
        };
        let s = centralization_score(dist);
        let ins = webdep::analysis::insularity::country_insularity(&ctx, ci, layer).unwrap_or(0.0);
        println!(
            "\n[{:<7}] S = {s:.4} (paper {:.4})  insularity = {:.1}%  providers = {}",
            layer.name(),
            record.paper_score(layer),
            100.0 * ins,
            dist.num_providers()
        );
        for &(owner, count) in ctx.country_counts(ci, layer).iter().take(5) {
            println!(
                "    {:<28} {:>5.1}%  ({})",
                ctx.owner_name(layer, owner),
                100.0 * count as f64 / dist.total() as f64,
                ctx.owner_country(layer, owner).unwrap_or("--"),
            );
        }
    }
    println!("\nDependence by provider country (hosting):");
    for (cc, share) in dependence_shares(&ctx, ci, Layer::Hosting)
        .into_iter()
        .take(6)
    {
        println!("    {cc}: {:.1}%", 100.0 * share);
    }
}

fn cmd_tables(scale: Option<&str>) {
    let (world, ds) = measured("tables", scale_config(scale));
    let ctx = AnalysisCtx::new(&world, &ds);
    for layer in Layer::ALL {
        let t = layer_table(&ctx, layer);
        println!("{}", report::layer_table_markdown(&t, 8, 4));
    }
    let ins = insularity_table(&ctx, Layer::Hosting);
    println!("{}", report::insularity_markdown(&ins, 10));
}

fn cmd_measure(args: &[String]) {
    let mut scale: Option<&str> = None;
    let mut store: Option<&str> = None;
    let mut resume = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--store" => {
                let Some(path) = args.get(i + 1) else {
                    eprintln!("--store needs a path");
                    std::process::exit(2);
                };
                store = Some(path.as_str());
                i += 2;
            }
            "--resume" => {
                resume = true;
                i += 1;
            }
            s if !s.starts_with("--") && scale.is_none() => {
                scale = Some(s);
                i += 1;
            }
            other => {
                eprintln!("unknown measure argument {other:?}");
                usage();
            }
        }
    }
    if resume && store.is_none() {
        eprintln!("--resume finishes a kept store: it needs --store <dir>");
        std::process::exit(2);
    }

    let world = World::generate(scale_config(scale));
    let deploy = || DeployedWorld::deploy(&world, DeployConfig::default());
    let config = PipelineConfig::default();
    eprintln!("measuring {} sites ({})...", world.sites.len(), world.label);
    let stats = match store.map(Path::new) {
        None => in_scratch_store("measure", |dir| {
            measure_streamed(&world, &deploy(), &config, dir, None)
        }),
        Some(dir) => {
            // A resume verifies the store before it deploys anything, and
            // a complete store needs no deployment at all.
            let run = match resume {
                true => resume_streamed_with(&world, deploy, &config, dir),
                false => measure_streamed(&world, &deploy(), &config, dir, None),
            };
            run.unwrap_or_else(|e| {
                eprintln!("store error: {e}");
                std::process::exit(1);
            })
        }
    };

    let sup = &stats.supervision;
    println!("sites            = {}", world.sites.len());
    println!("wall             = {} ms", stats.wall.as_millis());
    match stats.sites_per_sec {
        Some(rate) => println!("sites/sec        = {rate:.0}"),
        None => println!("sites/sec        = n/a"),
    }
    println!("wire queries     = {}", stats.wire_queries);
    println!("sites resumed    = {}", sup.sites_resumed);
    println!("panics isolated  = {}", sup.panics_isolated);
    println!("workers lost     = {}", sup.workers_lost);
    println!("batches requeued = {}", sup.batches_requeued);
    println!("sites poisoned   = {}", sup.sites_poisoned);
    if let Some(dir) = store {
        println!("store            = {dir}");
    }
}

fn cmd_serve(args: &[String]) {
    use std::sync::Arc;
    use webdep::serve::server::sig;
    use webdep::serve::snapshot::CubeSnapshot;
    use webdep::serve::{start, ServeConfig};

    let mut scale: Option<&str> = None;
    let mut addr = "127.0.0.1:8439".to_string();
    let mut threads: usize = 8;
    let mut store: Option<&str> = None;
    let mut world_seed: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" | "--threads" | "--store" | "--world-seed" => {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("{} needs a value", args[i]);
                    std::process::exit(2);
                };
                match args[i].as_str() {
                    "--addr" => addr = value.clone(),
                    "--store" => store = Some(value.as_str()),
                    "--threads" => {
                        threads = value.parse().unwrap_or_else(|_| {
                            eprintln!("--threads needs a positive integer, got {value:?}");
                            std::process::exit(2);
                        });
                    }
                    _ => {
                        world_seed = Some(value.parse().unwrap_or_else(|_| {
                            eprintln!("--world-seed needs an integer, got {value:?}");
                            std::process::exit(2);
                        }));
                    }
                }
                i += 2;
            }
            s if !s.starts_with("--") && scale.is_none() => {
                scale = Some(s);
                i += 1;
            }
            other => {
                eprintln!("unknown serve argument {other:?}");
                usage();
            }
        }
    }
    if store.is_some() && world_seed.is_some() {
        eprintln!("--store serves an existing chunked dataset, --world-seed measures a fresh synthetic world; pick one");
        std::process::exit(2);
    }

    let mut config = scale_config(scale);
    if let Some(seed) = world_seed {
        config.seed = seed;
    }
    let world = Arc::new(World::generate(config));
    let snapshot = match store {
        Some(dir) => {
            eprintln!(
                "loading chunked store {dir:?} against world {} ({} sites)...",
                world.label,
                world.sites.len()
            );
            CubeSnapshot::from_store(1, Arc::clone(&world), Path::new(dir)).unwrap_or_else(|e| {
                eprintln!("store error: {e}");
                std::process::exit(1);
            })
        }
        None => {
            // Serving state is only ever folded from a chunk store: measure
            // into a scratch one, fold it, and remove it.
            eprintln!("measuring {} sites ({})...", world.sites.len(), world.label);
            let dep = DeployedWorld::deploy(&world, DeployConfig::default());
            in_scratch_store("serve", |dir| {
                measure_streamed(&world, &dep, &PipelineConfig::default(), dir, None)?;
                CubeSnapshot::from_store(1, Arc::clone(&world), dir)
            })
        }
    };

    let handle = start(
        ServeConfig {
            addr,
            workers: threads.max(1),
            ..ServeConfig::default()
        },
        Arc::new(snapshot),
    )
    .unwrap_or_else(|e| {
        eprintln!("bind error: {e}");
        std::process::exit(1);
    });
    let bound = handle.addr();
    println!(
        "webdep serve: listening on http://{bound} (epoch {})",
        handle.epoch()
    );
    println!("  try: curl http://{bound}/v1/badge/DE");
    println!("       curl 'http://{bound}/v1/score/US?layer=dns&replicates=500'");
    println!("       curl http://{bound}/v1/coverage");
    println!("       curl http://{bound}/metrics   # Prometheus text exposition");

    if !sig::install_handlers() {
        eprintln!("warning: could not install SIGINT/SIGTERM handlers; stop with SIGKILL");
    }
    while !sig::interrupted() {
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
    let stats = handle.stats();
    let cache = handle.cache_stats();
    eprintln!(
        "\nsignal: draining ({} connections served, {} ok / {} errors, cache hit rate {:.3})...",
        stats.connections,
        stats.ok,
        stats.errors,
        cache.hit_rate().unwrap_or(0.0)
    );
    handle.shutdown();
    std::process::exit(0);
}

/// The closed continuous-measurement loop: generate + measure a base
/// epoch into a chunked store, then per epoch evolve the world, re-measure
/// only the dirty sites (`measure_delta`), build the next snapshot from
/// the previous one plus the delta (`CubeSnapshot::from_delta`), and —
/// when `--serve-addr` is given — publish it live through the running
/// server's snapshot cell.
fn cmd_evolve(args: &[String]) {
    use std::sync::Arc;
    use std::time::Instant;
    use webdep::pipeline::{measure_delta, measure_streamed};
    use webdep::serve::server::sig;
    use webdep::serve::snapshot::CubeSnapshot;
    use webdep::serve::{start, ServeConfig};
    use webdep::webgen::{provider_site_counts, EvolutionPlan};

    let mut n_epochs: Option<usize> = None;
    let mut scale: Option<&str> = None;
    let mut churn = 0.10f64;
    let mut store_root: Option<String> = None;
    let mut serve_addr: Option<String> = None;
    let mut workers: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--churn" | "--store" | "--serve-addr" | "--workers" => {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("{} needs a value", args[i]);
                    std::process::exit(2);
                };
                match args[i].as_str() {
                    "--churn" => {
                        churn = value.parse().unwrap_or_else(|_| {
                            eprintln!("--churn needs a fraction in (0, 1), got {value:?}");
                            std::process::exit(2);
                        });
                        if !(0.0..=1.0).contains(&churn) {
                            eprintln!("--churn {churn} outside [0, 1]");
                            std::process::exit(2);
                        }
                    }
                    "--store" => store_root = Some(value.clone()),
                    "--serve-addr" => serve_addr = Some(value.clone()),
                    _ => {
                        workers = Some(value.parse().unwrap_or_else(|_| {
                            eprintln!("--workers needs a positive integer, got {value:?}");
                            std::process::exit(2);
                        }));
                    }
                }
                i += 2;
            }
            s if !s.starts_with("--") => {
                if n_epochs.is_none() && s.chars().all(|c| c.is_ascii_digit()) {
                    n_epochs = s.parse().ok();
                } else if scale.is_none() {
                    scale = Some(s);
                } else {
                    eprintln!("unknown evolve argument {s:?}");
                    usage();
                }
                i += 1;
            }
            other => {
                eprintln!("unknown evolve argument {other:?}");
                usage();
            }
        }
    }
    let n_epochs = n_epochs.unwrap_or_else(|| {
        eprintln!("evolve needs the number of epochs, e.g. `webdep evolve 4 tiny`");
        std::process::exit(2);
    });
    let config = scale_config(scale);
    let store_root = store_root.map(std::path::PathBuf::from).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("webdep-evolve-{}", std::process::id()))
    });

    let mut pipeline = PipelineConfig::default();
    if let Some(w) = workers {
        pipeline.workers = w.max(1);
    }

    // The base epoch: one generated world, measured in full, streamed to
    // a chunked store. The provider pool census is pinned here so every
    // later epoch's unchanged sites keep their serving IPs — the delta
    // byte-identity contract.
    let seed = config.seed;
    let base = World::generate(config);
    let census = Arc::new(provider_site_counts(&base));
    let pinned = DeployConfig {
        pool_sites: Some(Arc::clone(&census)),
        ..DeployConfig::default()
    };
    let epoch_dir = |e: usize| store_root.join(format!("epoch-{e:04}"));
    eprintln!(
        "epoch 0: measuring {} sites ({}) into {:?}...",
        base.sites.len(),
        base.label,
        epoch_dir(0)
    );
    let t0 = Instant::now();
    // The base deployment serves the epoch-0 measurement only: each epoch
    // deploys its own world.
    let dep = DeployedWorld::deploy(&base, pinned.clone());
    let deploy_ms = t0.elapsed().as_millis();
    measure_streamed(&base, &dep, &pipeline, &epoch_dir(0), None).unwrap_or_else(|e| {
        eprintln!("store error: {e}");
        std::process::exit(1);
    });
    drop(dep);
    println!(
        "epoch 0  sites={}  measured={}  deploy={deploy_ms}ms  wall={}ms  (full)",
        base.sites.len(),
        base.sites.len(),
        t0.elapsed().as_millis()
    );

    let mut world = Arc::new(base);
    let mut snapshot = Arc::new(
        CubeSnapshot::from_store(1, Arc::clone(&world), &epoch_dir(0)).unwrap_or_else(|e| {
            eprintln!("snapshot error: {e}");
            std::process::exit(1);
        }),
    );
    let handle = serve_addr.map(|addr| {
        let h = start(
            ServeConfig {
                addr,
                ..ServeConfig::default()
            },
            Arc::clone(&snapshot),
        )
        .unwrap_or_else(|e| {
            eprintln!("bind error: {e}");
            std::process::exit(1);
        });
        println!(
            "serving on http://{} (epoch {}); trajectory at /v1/trajectory",
            h.addr(),
            h.epoch()
        );
        h
    });

    let plan = EvolutionPlan::continuous(n_epochs, churn, seed);
    for e in 0..n_epochs {
        let t = Instant::now();
        let (next, delta) = plan.evolve_epoch(&world, e);
        if let Err(err) = delta.certify_unchanged(&world, &next) {
            eprintln!("epoch {}: unchanged-site certificate failed: {err}", e + 1);
            std::process::exit(1);
        }
        for w in &delta.warnings {
            eprintln!("epoch {}: warning: {w}", e + 1);
        }
        let next = Arc::new(next);
        let t_deploy = Instant::now();
        let dep = DeployedWorld::deploy(&next, pinned.clone());
        let deploy_ms = t_deploy.elapsed().as_millis();
        let stats = measure_delta(
            &next,
            &dep,
            &pipeline,
            &delta,
            &epoch_dir(e),
            &epoch_dir(e + 1),
            None,
        )
        .unwrap_or_else(|err| {
            eprintln!("epoch {}: delta measurement failed: {err}", e + 1);
            std::process::exit(1);
        });
        let mut next_snapshot = Arc::new(
            CubeSnapshot::from_delta(
                snapshot.epoch + 1,
                Arc::clone(&next),
                &snapshot,
                &delta,
                &epoch_dir(e + 1),
            )
            .unwrap_or_else(|err| {
                eprintln!("epoch {}: snapshot delta failed: {err}", e + 1);
                std::process::exit(1);
            }),
        );
        // Validated publish with a full-rebuild retry: a delta-built
        // snapshot failing its pre-publish invariants never reaches
        // readers — the prior epoch keeps serving while the epoch is
        // re-measured in full and rebuilt from the store. Only a rebuild
        // that *also* fails validation aborts the loop.
        let admit = |cand: &Arc<CubeSnapshot>| match &handle {
            Some(h) => h
                .publish_validated(Arc::clone(cand), Some(&delta))
                .map(|_| ()),
            None => cand.validate(Some(&snapshot), Some(&delta)),
        };
        if let Err(why) = admit(&next_snapshot) {
            eprintln!(
                "epoch {}: snapshot rejected ({why}); re-measuring the epoch in full...",
                e + 1
            );
            measure_streamed(&next, &dep, &pipeline, &epoch_dir(e + 1), None).unwrap_or_else(
                |err| {
                    eprintln!("epoch {}: full re-measure failed: {err}", e + 1);
                    std::process::exit(1);
                },
            );
            let rebuilt = Arc::new(
                CubeSnapshot::from_store_extending(
                    snapshot.epoch + 1,
                    Arc::clone(&next),
                    &epoch_dir(e + 1),
                    &snapshot,
                )
                .unwrap_or_else(|err| {
                    eprintln!("epoch {}: snapshot rebuild failed: {err}", e + 1);
                    std::process::exit(1);
                }),
            );
            if let Err(why) = admit(&rebuilt) {
                eprintln!(
                    "epoch {}: rebuilt snapshot rejected ({why}); giving up",
                    e + 1
                );
                std::process::exit(1);
            }
            next_snapshot = rebuilt;
        }
        let point = next_snapshot
            .trajectory
            .points
            .last()
            .expect("trajectory point");
        println!(
            "epoch {}  sites={}  remeasured={}  chunks carried={}/{}  rows recommitted={}  patch rows={}{}  deploy={deploy_ms}ms  wall={}ms  S={:.4}  drift={:+.4}{}{}",
            e + 1,
            stats.sites_total,
            stats.sites_remeasured,
            stats.chunks_adopted,
            stats.chunks_total,
            stats.rows_recommitted,
            stats.patch_rows,
            if stats.compacted { "  COMPACTED" } else { "" },
            t.elapsed().as_millis(),
            point.mean_score,
            point.drift,
            if point.changepoint { "  CHANGEPOINT" } else { "" },
            if handle.is_some() { "  (published)" } else { "" },
        );
        world = next;
        snapshot = next_snapshot;
    }

    match handle {
        Some(h) => {
            println!(
                "evolution done ({} epochs); serving until SIGINT/SIGTERM on http://{}",
                n_epochs,
                h.addr()
            );
            if !sig::install_handlers() {
                eprintln!("warning: could not install SIGINT/SIGTERM handlers; stop with SIGKILL");
            }
            while !sig::interrupted() {
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
            h.shutdown();
        }
        None => {
            println!(
                "evolution done: {} epochs in {:?} (stores retained for inspection)",
                n_epochs, store_root
            );
        }
    }
}

/// `webdep fsck <store-dir> [--repair]`: verify every chunk and patch of a
/// measurement store (checksums, headers, full column decode) and print a
/// machine-readable report. With `--repair`, corrupt files are moved to
/// `quarantine/`; `measure --store <dir> --resume` measures their sites
/// again (an epoch's store heals by running its epoch again). Exits
/// non-zero unless the store was clean.
fn cmd_fsck(args: &[String]) {
    use webdep::pipeline::ChunkStore;

    let mut dir: Option<&String> = None;
    let mut repair = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--repair" => {
                repair = true;
                i += 1;
            }
            s if !s.starts_with("--") && dir.is_none() => {
                dir = Some(&args[i]);
                i += 1;
            }
            other => {
                eprintln!("unknown fsck argument {other:?}");
                usage();
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("fsck needs a store directory, e.g. `webdep fsck chunks/ --repair`");
        std::process::exit(2);
    };
    let report = ChunkStore::fsck(Path::new(dir), None, repair).unwrap_or_else(|e| {
        eprintln!("fsck error: {e}");
        std::process::exit(1);
    });
    println!("{}", report.to_value());
    if !report.clean() {
        std::process::exit(1);
    }
}

fn cmd_experiments(scale: Option<&str>) {
    let (world, ds) = measured("experiments", scale_config(scale));
    let ctx = AnalysisCtx::new(&world, &ds);
    let suite = ExperimentSuite::run(&ctx, None, None);
    println!("{}", suite.to_markdown());
    println!("{}/{} passed", suite.passed(), suite.total());
    if suite.passed() != suite.total() {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("score") if args.len() > 1 => cmd_score(&args[1..]),
        Some("country") if args.len() >= 2 => {
            cmd_country(&args[1], args.get(2).map(String::as_str))
        }
        Some("tables") => cmd_tables(args.get(1).map(String::as_str)),
        Some("experiments") => cmd_experiments(args.get(1).map(String::as_str)),
        Some("measure") => cmd_measure(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("evolve") => cmd_evolve(&args[1..]),
        Some("fsck") => cmd_fsck(&args[1..]),
        _ => usage(),
    }
}
