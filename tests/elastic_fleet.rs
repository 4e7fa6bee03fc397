//! Integration tests of runtime fleet membership: retire-drain racing live
//! submitters, exactly-once plan re-preparation after a drained backlog
//! migrates, deterministic sequencing of a retire against a gated backlog,
//! and the static-fleet guarantee that a pool which never changes membership
//! is bit-identical to the classic engine with every elastic counter at zero.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use seer::core::inference::SelectionPolicy;
use seer::core::serving::Workload;
use seer::core::training::TrainingConfig;
use seer::gpu::{Fleet, Gpu};
use seer::sparse::collection::{generate, CollectionConfig};
use seer::sparse::traffic::{TrafficConfig, TrafficGenerator, TrafficRequest};
use seer::sparse::CsrMatrix;
use seer::{DeviceId, PoolConfig, SeerEngine, ServingPool, ServingRequest};

/// A three-device slice of the reference lineup: enough devices that one can
/// retire mid-test with two survivors left to absorb the backlog.
fn three_device_fleet() -> Fleet {
    Fleet::of_specs(Fleet::reference_presets().into_iter().take(3)).expect("presets validate")
}

fn trained_corpus() -> (SeerEngine, Vec<Arc<CsrMatrix>>) {
    let entries = generate(&CollectionConfig::tiny());
    let (trained, _outcome) =
        SeerEngine::train(Gpu::default(), &entries, &TrainingConfig::fast()).unwrap();
    let corpus = entries.iter().map(|e| Arc::new(e.matrix.clone())).collect();
    (trained, corpus)
}

fn fleet_stream(corpus_len: usize, requests: usize) -> Vec<TrafficRequest> {
    TrafficGenerator::new(&TrafficConfig::fleet_mixed(corpus_len, 0xE1A57))
        .take(requests)
        .collect()
}

/// A pool that never changes membership is indistinguishable from the classic
/// fleet engine: selections bit-identical to a sequential replay, generation
/// counter untouched, and every elastic counter exactly zero.
#[test]
fn static_fleet_stays_bit_identical_with_elastic_counters_zero() {
    let (trained, corpus) = trained_corpus();
    let fleet = three_device_fleet();
    let generation = fleet.generation();
    let stream = fleet_stream(corpus.len(), 200);

    let pool = ServingPool::with_fleet(
        fleet.clone(),
        trained.models_handle(),
        PoolConfig::with_shards(2),
    );
    let tickets = pool.submit_batch(
        stream
            .iter()
            .map(|r| ServingRequest::select(Arc::clone(&corpus[r.matrix_index]), r.iterations)),
    );
    let pooled: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("static fleet never fails"))
        .collect();

    let replay = SeerEngine::with_fleet(fleet.clone(), trained.models_handle());
    for (index, (request, response)) in stream.iter().zip(&pooled).enumerate() {
        let expected = replay.select(&corpus[request.matrix_index], request.iterations);
        assert_eq!(
            response.selection, expected,
            "request {index} diverged from the sequential fleet replay"
        );
    }

    let stats = pool.shutdown();
    assert_eq!(stats.completed(), stream.len() as u64);
    assert_eq!(stats.queue_depth(), 0);
    assert_eq!(stats.device_failures(), 0);
    assert_eq!(stats.retried(), 0);
    assert_eq!(stats.migrations(), 0);
    assert_eq!(stats.failed(), 0);
    assert_eq!(stats.retry_rate(), 0.0);
    assert_eq!(stats.migration_rate(), 0.0);
    assert_eq!(
        fleet.generation(),
        generation,
        "serving without membership changes must not bump the fleet generation"
    );
}

/// The deterministic retire-vs-backlog sequencing test. A gate workload pins
/// one worker (and thereby one device lane); a same-fingerprint backlog
/// queues behind it; retire of that device is provably in flight (blocked on
/// the gated worker) when the gate opens. Every queued request must then
/// migrate to a survivor, the migrated plan must be re-prepared exactly once,
/// and a concurrent drain must ride out the retire without deadlocking.
#[test]
fn retire_drains_a_gated_backlog_onto_survivors_exactly_once() {
    const BACKLOG: usize = 12;
    let (trained, corpus) = trained_corpus();
    let fleet = three_device_fleet();
    let pool = Arc::new(ServingPool::with_fleet(
        fleet.clone(),
        trained.models_handle(),
        PoolConfig::with_shards(1),
    ));
    let matrix = Arc::clone(&corpus[0]);

    // Block one worker on the gate; the lane it was routed to is the victim.
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let gated_ticket = pool.submit(ServingRequest {
        matrix: Arc::clone(&matrix),
        iterations: 19,
        policy: SelectionPolicy::Adaptive,
        workload: Workload::Gate {
            gate: Arc::clone(&gate),
        },
        priority: seer::Priority::default(),
        deadline: None,
    });
    let victim: DeviceId = pool
        .stats()
        .devices()
        .into_iter()
        .find(|lane| lane.submitted == 1)
        .expect("the gate was routed somewhere")
        .device;

    // Same fingerprint + iterations => same selection, so the backlog
    // queues on the victim's lane — one shard, behind the gated worker.
    let backlog_tickets =
        pool.submit_batch((0..BACKLOG).map(|_| ServingRequest::select(Arc::clone(&matrix), 19)));
    assert_eq!(
        pool.stats()
            .devices()
            .into_iter()
            .find(|lane| lane.device == victim)
            .expect("victim lane exists")
            .submitted,
        1 + BACKLOG as u64
    );

    // Retire the victim on a thread: it must block joining the gated worker,
    // which is the retire-drain-in-flight state. A concurrent drain (the
    // shutdown path's first half) must coexist with it.
    let retiring = {
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || pool.retire_device(victim))
    };
    let draining = {
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || pool.drain())
    };
    std::thread::sleep(Duration::from_millis(60));
    assert!(
        !retiring.is_finished(),
        "retire must block on the gated worker's drain"
    );

    // Open the gate: the worker serves the gate request plus the queued
    // backlog (now against a retired device), then exits; retire completes.
    {
        let (lock, opened) = &*gate;
        *lock.lock().unwrap() = true;
        opened.notify_all();
    }
    retiring
        .join()
        .expect("retire thread")
        .expect("victim was live");
    draining.join().expect("drain thread");

    // Every ticket resolved, and every one was served by a live survivor.
    let gated_response = gated_ticket.wait().expect("gated request migrates");
    assert_ne!(gated_response.selection.device, victim);
    for ticket in backlog_tickets {
        let response = ticket.wait().expect("backlog request migrates");
        assert_ne!(response.selection.device, victim);
        assert!(fleet.is_live(response.selection.device));
        assert_eq!(response.selection, gated_response.selection);
    }

    // New work for the same matrix routes to the survivors.
    let after = pool
        .submit(ServingRequest::select(Arc::clone(&matrix), 19))
        .wait()
        .expect("post-retire request");
    assert_ne!(after.selection.device, victim);

    let pool = Arc::into_inner(pool).expect("all threads joined");
    let stats = pool.shutdown();
    let victim_lane = stats
        .devices()
        .into_iter()
        .find(|lane| lane.device == victim)
        .expect("victim lane exists");
    // The whole gated backlog migrated: served by the victim's worker after
    // the device left the live set.
    assert_eq!(victim_lane.migrated, 1 + BACKLOG as u64);
    assert_eq!(victim_lane.completed, 1 + BACKLOG as u64);
    assert_eq!(victim_lane.failed, 0);
    // Exactly-once computation: the plan was computed once pool-wide, at
    // routing, and never again. The victim's lane holds the routing
    // selections made while it was live (the gate's miss, the backlog's
    // hits); every re-selection after the retire replayed the cached plan
    // onto a survivor.
    assert_eq!(stats.engine().plan_misses, 1);
    assert_eq!(victim_lane.engine.plan_misses, 1);
    assert_eq!(victim_lane.engine.plan_hits, BACKLOG as u64);
    assert_eq!(
        stats.engine().plan_hits,
        BACKLOG as u64 + (1 + BACKLOG as u64) + 1,
        "backlog routing, one re-selection per migrated request, the post-retire request"
    );
    assert_eq!(stats.completed(), 2 + BACKLOG as u64);
    assert_eq!(stats.queue_depth(), 0);
    assert_eq!(stats.failed(), 0);
}

/// Retire racing a storm of live submitters: no ticket may be lost, none may
/// resolve to a worker death, and the counters must balance exactly whatever
/// interleaving the race takes.
#[test]
fn submitters_race_a_retire_without_losing_tickets() {
    const SUBMITTERS: usize = 4;
    const PER_SUBMITTER: usize = 80;
    let (trained, corpus) = trained_corpus();
    let fleet = three_device_fleet();
    let victim = DeviceId::new(2);
    let pool = Arc::new(ServingPool::with_fleet(
        fleet.clone(),
        trained.models_handle(),
        PoolConfig::with_shards(2),
    ));
    let stream = fleet_stream(corpus.len(), SUBMITTERS * PER_SUBMITTER);

    let submitters: Vec<_> = (0..SUBMITTERS)
        .map(|thread_index| {
            let pool = Arc::clone(&pool);
            let corpus: Vec<Arc<CsrMatrix>> = corpus.to_vec();
            let slice: Vec<TrafficRequest> =
                stream[thread_index * PER_SUBMITTER..(thread_index + 1) * PER_SUBMITTER].to_vec();
            std::thread::spawn(move || {
                slice
                    .iter()
                    .map(|request| {
                        let ticket = pool.submit(ServingRequest::select(
                            Arc::clone(&corpus[request.matrix_index]),
                            request.iterations,
                        ));
                        ticket.wait().expect("no ticket may be dropped by the race")
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    // Retire mid-storm: submitters keep racing the drain.
    std::thread::sleep(Duration::from_millis(5));
    pool.retire_device(victim).expect("victim was live");

    let responses: Vec<_> = submitters
        .into_iter()
        .flat_map(|handle| handle.join().expect("submitter thread"))
        .collect();
    assert_eq!(responses.len(), stream.len());
    // Post-retire work never lands on the victim; anything the victim served
    // before (or while draining) is legitimate.
    let post = pool
        .submit(ServingRequest::select(Arc::clone(&corpus[0]), 19))
        .wait()
        .expect("post-retire request");
    assert!(fleet.is_live(post.selection.device));

    let pool = Arc::into_inner(pool).expect("all submitters joined");
    let stats = pool.shutdown();
    let total = stream.len() as u64 + 1;
    assert_eq!(stats.submitted(), total, "no ticket lost at submission");
    assert_eq!(stats.completed(), total, "no ticket lost in serving");
    assert_eq!(stats.queue_depth(), 0);
    assert_eq!(stats.failed(), 0, "a retire is not a worker death");
    // Any request caught mid-execution on the retiring device was absorbed
    // by its one bounded retry.
    assert_eq!(stats.device_failures(), stats.retried());
    // Per-device lanes still partition the pool exactly.
    assert_eq!(
        stats
            .devices()
            .iter()
            .map(|lane| lane.completed)
            .sum::<u64>(),
        stats.completed()
    );
}

/// A storm of submitters racing `begin_shutdown`: every submit must resolve
/// to either a served response or the typed [`seer::ServingError::PoolClosed`]
/// — never a panic, a hang, or a spurious worker death — and the admitted /
/// refused split must balance the front-door counters exactly.
#[test]
fn submit_storm_racing_shutdown_resolves_every_ticket_typed() {
    const SUBMITTERS: usize = 4;
    const PER_SUBMITTER: usize = 80;
    let (trained, corpus) = trained_corpus();
    let fleet = three_device_fleet();
    let pool = Arc::new(ServingPool::with_fleet(
        fleet,
        trained.models_handle(),
        PoolConfig::with_shards(2),
    ));
    let stream = fleet_stream(corpus.len(), SUBMITTERS * PER_SUBMITTER);

    let submitters: Vec<_> = (0..SUBMITTERS)
        .map(|thread_index| {
            let pool = Arc::clone(&pool);
            let corpus: Vec<Arc<CsrMatrix>> = corpus.to_vec();
            let slice: Vec<TrafficRequest> =
                stream[thread_index * PER_SUBMITTER..(thread_index + 1) * PER_SUBMITTER].to_vec();
            std::thread::spawn(move || {
                let mut served = 0u64;
                let mut refused = 0u64;
                for request in &slice {
                    let ticket = pool.submit(ServingRequest::select(
                        Arc::clone(&corpus[request.matrix_index]),
                        request.iterations,
                    ));
                    match ticket.wait() {
                        Ok(_) => served += 1,
                        Err(seer::ServingError::PoolClosed) => refused += 1,
                        Err(other) => panic!("shutdown race leaked an untyped failure: {other}"),
                    }
                }
                (served, refused)
            })
        })
        .collect();

    // Close the front door mid-storm; in-flight submitters keep racing it.
    std::thread::sleep(Duration::from_millis(5));
    pool.begin_shutdown();

    let (served, refused) = submitters
        .into_iter()
        .map(|handle| handle.join().expect("submitter thread"))
        .fold((0u64, 0u64), |(s, r), (ts, tr)| (s + ts, r + tr));
    assert_eq!(served + refused, stream.len() as u64, "no ticket lost");

    // submit_batch racing the same closed door also resolves typed.
    let batch = pool.submit_batch(
        stream
            .iter()
            .take(8)
            .map(|r| ServingRequest::select(Arc::clone(&corpus[r.matrix_index]), r.iterations)),
    );
    for ticket in batch {
        assert_eq!(ticket.wait(), Err(seer::ServingError::PoolClosed));
    }

    let pool = Arc::into_inner(pool).expect("all submitters joined");
    let stats = pool.shutdown();
    // Everything admitted before the close drained and was served; every
    // refusal was counted at the front door, ticketless.
    assert_eq!(stats.submitted(), served, "admitted = served exactly");
    assert_eq!(stats.completed(), served);
    assert_eq!(stats.served(), served);
    assert_eq!(stats.failed(), 0, "a shutdown race is not a worker death");
    assert_eq!(stats.admission.shed_closed, refused + 8);
    assert_eq!(stats.offered(), stream.len() as u64 + 8);
    assert_eq!(stats.admission.in_flight, 0);
    assert_eq!(stats.queue_depth(), 0);
}
