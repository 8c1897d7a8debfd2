//! `webdep` — command-line interface to the dependence toolkit.
//!
//! ```text
//! webdep score 60 20 10 5 5        # S / HHI / top-N for raw counts
//! webdep country DE [tiny|small]   # one country's full dependence profile
//! webdep tables [tiny|small]       # the four layer tables
//! webdep experiments [tiny|small]  # the paper-vs-measured suite
//! webdep measure [tiny|small]                      # resident run, accounting only
//! webdep measure small --store chunks/ --journal run.journal  # checkpointed run
//! webdep measure small --store chunks/ --resume run.journal   # continue after a crash
//! webdep serve [tiny|small] --addr 127.0.0.1:8439   # resident query service
//! webdep serve small --store chunks/               # serve a chunked store
//! webdep evolve 4 tiny --churn 0.1                 # continuous epochs, delta re-measure
//! webdep evolve 4 tiny --serve-addr 127.0.0.1:8439 # …published live per epoch
//! webdep fsck chunks/ --repair --journal run.journal # verify + heal a store
//! ```
//!
//! The heavier subcommands generate, deploy, and measure a synthetic world
//! (seconds at `tiny`, ~1 minute at `small`). `measure` runs just the
//! measurement pipeline and prints its supervision/throughput accounting.
//! With `--store` the observations stream into a chunked columnar store
//! instead of memory; `--journal` also checkpoints every completed site
//! beside it (one-row chunks in the store's own codec), and `--resume`
//! continues an interrupted checkpointed run, re-measuring only the sites
//! neither the store nor the journal holds (the healed store is
//! byte-identical to an uninterrupted run's). The same journal lets
//! `fsck --repair` re-encode a damaged chunk.

use std::path::Path;
use webdep::analysis::centralization::layer_table;
use webdep::analysis::insularity::{dependence_shares, insularity_table};
use webdep::analysis::report;
use webdep::analysis::{AnalysisCtx, ExperimentSuite};
use webdep::core::centralization::{centralization_score, hhi, ConcentrationBand};
use webdep::core::dist::CountDist;
use webdep::core::topn::top_n_share;
use webdep::pipeline::{
    measure, measure_streamed, measure_with_stats, resume_streamed, MeasuredDataset, PipelineConfig,
};
use webdep::webgen::{DeployConfig, DeployedWorld, Layer, World, WorldConfig};

fn usage() -> ! {
    eprintln!(
        "usage:\n  webdep score <count> [count ...]\n  webdep country <CC> [tiny|small]\n  webdep tables [tiny|small]\n  webdep experiments [tiny|small]\n  webdep measure [tiny|small] [--store <dir> [--journal <path> | --resume <path>]]\n  webdep serve [tiny|small] [--addr <ip:port>] [--threads <n>] [--store <dir> | --world-seed <seed>]\n  webdep evolve <n-epochs> [tiny|small] [--churn <frac>] [--store <dir>] [--serve-addr <ip:port>] [--workers <n>]\n  webdep fsck <store-dir> [--repair] [--journal <path>]"
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

fn measured(config: WorldConfig) -> (World, MeasuredDataset) {
    let world = World::generate(config);
    let dep = DeployedWorld::deploy(&world, DeployConfig::default());
    let ds = measure(&world, &dep, &PipelineConfig::default());
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
    let (world, ds) = measured(scale_config(scale));
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
    let (world, ds) = measured(scale_config(scale));
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
    let mut journal: Option<&str> = None;
    let mut resume: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            flag @ ("--store" | "--journal" | "--resume") => {
                let Some(path) = args.get(i + 1) else {
                    eprintln!("{flag} needs a path");
                    std::process::exit(2);
                };
                let slot = match flag {
                    "--store" => &mut store,
                    "--journal" => &mut journal,
                    _ => &mut resume,
                };
                *slot = Some(path.as_str());
                i += 2;
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
    if journal.is_some() && resume.is_some() {
        eprintln!("--journal starts a fresh checkpointed run, --resume continues one; pick one");
        std::process::exit(2);
    }
    if store.is_none() && (journal.is_some() || resume.is_some()) {
        eprintln!("a journal checkpoints a chunk store: --journal and --resume need --store <dir>");
        std::process::exit(2);
    }

    let world = World::generate(scale_config(scale));
    let dep = DeployedWorld::deploy(&world, DeployConfig::default());
    let config = PipelineConfig::default();
    eprintln!("measuring {} sites ({})...", world.sites.len(), world.label);
    let stats = match store.map(Path::new) {
        None => {
            let (ds, stats) = measure_with_stats(&world, &dep, &config);
            println!("success rate     = {:.4}", ds.success_rate(&world));
            stats
        }
        Some(dir) => {
            let run = match resume {
                Some(p) => resume_streamed(&world, &dep, &config, dir, Path::new(p)),
                None => measure_streamed(&world, &dep, &config, dir, journal.map(Path::new)),
            };
            run.unwrap_or_else(|e| {
                eprintln!("store/journal error: {e}");
                std::process::exit(1);
            })
        }
    };

    let sup = &stats.supervision;
    println!("sites            = {}", world.sites.len());
    println!("wall             = {} ms", stats.wall.as_millis());
    println!("sites/sec        = {:.0}", stats.sites_per_sec);
    println!("wire queries     = {}", stats.wire_queries);
    println!("sites resumed    = {}", sup.sites_resumed);
    println!("panics isolated  = {}", sup.panics_isolated);
    println!("workers lost     = {}", sup.workers_lost);
    println!("batches requeued = {}", sup.batches_requeued);
    println!("sites poisoned   = {}", sup.sites_poisoned);
    if let Some(dir) = store {
        println!("store            = {dir}");
    }
    if let Some(p) = journal.or(resume) {
        println!("journal          = {p}");
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
            let dir = std::env::temp_dir().join(format!("webdep-serve-{}", std::process::id()));
            let built = measure_streamed(&world, &dep, &PipelineConfig::default(), &dir, None)
                .and_then(|_| CubeSnapshot::from_store(1, Arc::clone(&world), &dir));
            let _ = std::fs::remove_dir_all(&dir);
            built.unwrap_or_else(|e| {
                eprintln!("store error: {e}");
                std::process::exit(1);
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
    let dep = DeployedWorld::deploy(&base, pinned.clone());
    let stats = measure_streamed(&base, &dep, &pipeline, &epoch_dir(0), None).unwrap_or_else(|e| {
        eprintln!("store error: {e}");
        std::process::exit(1);
    });
    println!(
        "epoch 0  sites={}  measured={}  wall={}ms  (full)",
        base.sites.len(),
        base.sites.len(),
        t0.elapsed().as_millis()
    );
    drop(stats);

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
        let dep = DeployedWorld::deploy(&next, pinned.clone());
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
            "epoch {}  sites={}  remeasured={}  chunks adopted={}/{}  rows recommitted={}  wall={}ms  S={:.4}  drift={:+.4}{}{}",
            e + 1,
            stats.sites_total,
            stats.sites_remeasured,
            stats.chunks_adopted,
            stats.chunks_total,
            stats.rows_recommitted,
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

/// `webdep fsck <store-dir> [--repair] [--journal <path>]`: verify every
/// chunk of a measurement store (checksums, headers, full column decode)
/// and print a machine-readable report. With `--repair`, corrupt chunk
/// files are quarantined and — given the run's journal — re-encoded
/// byte-identically from its records. Exits non-zero unless the store is
/// intact after the pass.
fn cmd_fsck(args: &[String]) {
    use webdep::pipeline::ChunkStore;

    let mut dir: Option<&String> = None;
    let mut journal: Option<&String> = None;
    let mut repair = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--repair" => {
                repair = true;
                i += 1;
            }
            "--journal" => {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("--journal needs a value");
                    std::process::exit(2);
                };
                journal = Some(value);
                i += 2;
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
    let report =
        ChunkStore::fsck(Path::new(dir), journal.map(Path::new), repair).unwrap_or_else(|e| {
            eprintln!("fsck error: {e}");
            std::process::exit(1);
        });
    println!("{}", report.to_value());
    if !report.intact() {
        std::process::exit(1);
    }
}

fn cmd_experiments(scale: Option<&str>) {
    let (world, ds) = measured(scale_config(scale));
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
