//! Integration tests of runtime fleet membership: a retire racing live
//! submitters, shutdown racing live submitters, and the static-fleet
//! guarantee that a pool which never changes membership is bit-identical to
//! the classic engine with every elastic counter at zero. The deterministic
//! retire-against-a-gated-backlog test lives with the gate workload in the
//! serving module's unit tests.

use std::sync::Arc;
use std::time::Duration;

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

    // Retire mid-storm: submitters keep racing it, and work queued for the
    // victim re-selects at dequeue.
    std::thread::sleep(Duration::from_millis(5));
    pool.retire_device(victim).expect("victim was live");

    let responses: Vec<_> = submitters
        .into_iter()
        .flat_map(|handle| handle.join().expect("submitter thread"))
        .collect();
    assert_eq!(responses.len(), stream.len());
    // Post-retire work never lands on the victim; anything the victim served
    // before the retire is legitimate.
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
    // The engine's per-device counters still sum to the aggregate: every
    // selection, re-selections after the retire included, was placed on
    // exactly one device.
    assert_eq!(
        fleet
            .ids()
            .map(|device| stats.device_engine(device).selections())
            .sum::<u64>(),
        stats.engine().selections()
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
