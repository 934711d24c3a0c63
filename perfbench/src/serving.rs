//! Serving-layer load: an open-loop Poisson generator in front of
//! `NeoService`, and a synchronous `ServiceCore` replay of the same kind
//! of arrivals for the admission and coalescing timings.

use crate::report::Report;
use crate::stats::{mean, median, quantile};
use crate::{alloc, timed};
use neo_ckks::cost::CostConfig;
use neo_ckks::{BatchProgram, Ciphertext, NeoError, ParamSet};
use neo_gpu_sim::DeviceModel;
use neo_sched::OpGraph;
use neo_serve::{
    admission, AdmissionConfig, NeoService, ResponseHandle, ServeConfig, ServiceCore, TenantId,
    TenantRegistry,
};
use rand::Rng;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Requests coalesced into one batch at most.
pub const WINDOW: usize = 32;

/// The service configuration every workload serves with: the
/// `serve_bench` admission settings, pricing against the accelerator's
/// parameter set C while the host runs the functional parameters.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        admission: AdmissionConfig {
            coalesce_window: WINDOW,
            max_batch_ops: WINDOW * 8,
            max_queue_depth: 4096,
            pricing_params: Some(ParamSet::C.params()),
            ..AdmissionConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// One request: which tenant sends which program on which input.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Sending tenant.
    pub tenant: TenantId,
    /// Index into the program table.
    pub program: usize,
    /// Index into the input table.
    pub input: usize,
}

/// What happened to one open-loop request. Times are seconds since the
/// generator started.
#[derive(Debug)]
pub struct Record {
    /// When the request was due to be sent.
    pub due_s: f64,
    /// When it was actually sent.
    pub sent_s: f64,
    /// When its response arrived (`NaN` when shed at submission).
    pub done_s: f64,
    /// Admission queue wait reported by the service.
    pub queue_ms: f64,
    /// Execution time reported by the service.
    pub exec_ms: f64,
    /// Requests in the batch it ran in.
    pub batch: usize,
    /// Answered with every op's result.
    pub ok: bool,
    /// Every op's output, kept only for sampled requests.
    pub outputs: Option<Vec<Ciphertext>>,
}

impl Record {
    /// Latency from the scheduled send time to the response; shed or
    /// failed requests count as infinitely late.
    pub fn latency_ms(&self) -> f64 {
        if self.ok {
            (self.done_s - self.due_s) * 1e3
        } else {
            f64::INFINITY
        }
    }

    /// How late the generator sent it.
    pub fn lag_ms(&self) -> f64 {
        (self.sent_s - self.due_s) * 1e3
    }
}

/// Poisson arrival times at `rate` per second over `[from_s, to_s)`.
pub fn poisson<R: Rng>(rng: &mut R, rate: f64, from_s: f64, to_s: f64) -> Vec<f64> {
    let mut out = Vec::new();
    let mut t = from_s;
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / rate;
        if t >= to_s {
            return out;
        }
        out.push(t);
    }
}

/// Sends `arrivals` to `service` on schedule from this thread while a
/// collector thread waits for the responses in submission order. Batches
/// are admitted in arrival order and answered together, so waiting in
/// order timestamps each response when it is delivered. Outputs are kept
/// for the arrivals `keep` selects.
pub fn open_loop(
    service: &NeoService,
    arrivals: &[(f64, Spec)],
    programs: &[BatchProgram],
    inputs: &[Ciphertext],
    keep: impl Fn(usize) -> bool + Sync,
) -> Vec<Record> {
    let start = Instant::now();
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<(usize, f64, Result<ResponseHandle, NeoError>)>();
        let keep = &keep;
        let collector = s.spawn(move || {
            let mut out = Vec::with_capacity(arrivals.len());
            for (i, sent_s, handle) in rx {
                let (due_s, _) = arrivals[i];
                let response = handle.and_then(ResponseHandle::wait);
                let done_s = start.elapsed().as_secs_f64();
                out.push(match response {
                    Ok(resp) => {
                        let outputs = resp
                            .outcome
                            .ok()
                            .and_then(|ops| ops.into_iter().collect::<Result<Vec<_>, _>>().ok());
                        Record {
                            due_s,
                            sent_s,
                            done_s,
                            queue_ms: resp.queue.as_secs_f64() * 1e3,
                            exec_ms: resp.exec.as_secs_f64() * 1e3,
                            batch: resp.batch_requests,
                            ok: outputs.is_some(),
                            outputs: outputs.filter(|_| keep(i)),
                        }
                    }
                    Err(_) => Record {
                        due_s,
                        sent_s,
                        done_s: f64::NAN,
                        queue_ms: 0.0,
                        exec_ms: 0.0,
                        batch: 0,
                        ok: false,
                        outputs: None,
                    },
                });
            }
            out
        });
        for (i, (due_s, spec)) in arrivals.iter().enumerate() {
            let due = start + Duration::from_secs_f64(*due_s);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent_s = start.elapsed().as_secs_f64();
            let handle = service.submit(
                spec.tenant,
                programs[spec.program].clone(),
                vec![inputs[spec.input].clone()],
            );
            if tx.send((i, sent_s, handle)).is_err() {
                break;
            }
        }
        drop(tx);
        collector.join().expect("collector thread")
    })
}

/// Requests sent but not yet answered at time `t_s`.
pub fn outstanding(records: &[Record], t_s: f64) -> usize {
    records
        .iter()
        .filter(|r| r.sent_s <= t_s && r.ok && r.done_s > t_s)
        .count()
}

/// Sets the `serve.*` and `generator.lag_ms_p99` per-layer metrics from
/// the records of a live open-loop probe.
pub fn set_service_metrics(records: &[Record], report: &mut Report) {
    let served: Vec<&Record> = records.iter().filter(|r| r.ok).collect();
    let queue: Vec<f64> = served.iter().map(|r| r.queue_ms).collect();
    let exec: Vec<f64> = served.iter().map(|r| r.exec_ms).collect();
    let batch: Vec<f64> = served.iter().map(|r| r.batch as f64).collect();
    let lag: Vec<f64> = records.iter().map(Record::lag_ms).collect();
    report.set("serve.queue_wait_ms_p50", quantile(&queue, 0.5));
    report.set("serve.queue_wait_ms_p99", quantile(&queue, 0.99));
    report.set("serve.exec_ms_p50", quantile(&exec, 0.5));
    report.set("serve.batch_requests_mean", mean(&batch));
    report.set("serve.attempted", records.len() as f64);
    let shed = records.iter().filter(|r| r.done_s.is_nan()).count();
    report.set("serve.shed", shed as f64);
    report.set("serve.failed", (records.len() - served.len() - shed) as f64);
    report.set("generator.lag_ms_p99", quantile(&lag, 0.99));
}

/// Replays `arrivals` through a synchronous [`ServiceCore`] the way the
/// `NeoService` worker loop runs it (cut a batch at the window, or when
/// the next arrival is more than the linger away) and sets the
/// `admission.*`, `sched.estimate_us` and `alloc.count_per_request`
/// per-layer metrics. Coalesce time is a drain's wall time minus the
/// executor's own wall time.
pub fn core_layers(
    registry: &Arc<TenantRegistry>,
    arrivals: &[(f64, Spec)],
    programs: &[BatchProgram],
    inputs: &[Ciphertext],
    report: &mut Report,
) {
    let cfg = serve_config();
    let linger = cfg.linger.as_secs_f64();
    let mut core = ServiceCore::new(Arc::clone(registry), cfg.clone());
    let mut submit_us = Vec::new();
    let mut coalesce_us = Vec::new();
    let drain = |core: &mut ServiceCore, coalesce_us: &mut Vec<f64>| {
        let t = Instant::now();
        if let Some((_, stats)) = core.drain_batch() {
            let coalesce = t.elapsed().saturating_sub(stats.exec_wall);
            coalesce_us.push(coalesce.as_secs_f64() * 1e6);
        }
    };
    let ((), allocs) = alloc::measure(|| {
        let start = Instant::now();
        for (due_s, spec) in arrivals {
            while core.queue_depth() > 0 && start.elapsed().as_secs_f64() + linger < *due_s {
                drain(&mut core, &mut coalesce_us);
            }
            let wait = *due_s - start.elapsed().as_secs_f64();
            if wait > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait));
            }
            let (r, ms) = timed(|| {
                core.submit(
                    spec.tenant,
                    programs[spec.program].clone(),
                    vec![inputs[spec.input].clone()],
                )
            });
            if r.is_ok() {
                submit_us.push(ms * 1e3);
            }
            if core.queue_depth() >= WINDOW {
                drain(&mut core, &mut coalesce_us);
            }
        }
        while core.queue_depth() > 0 {
            drain(&mut core, &mut coalesce_us);
        }
    });
    report.set("admission.submit_us", median(&submit_us));
    report.set("admission.coalesce_us_per_batch", median(&coalesce_us));
    report.set(
        "alloc.count_per_request",
        allocs.count as f64 / arrivals.len().max(1) as f64,
    );

    // Pricing and the batch estimate, on the request shapes replayed.
    let functional = registry.context().params().clone();
    let pricing = cfg
        .admission
        .pricing_params
        .clone()
        .unwrap_or(functional.clone());
    let dev = DeviceModel::a100();
    let cost = CostConfig::neo();
    let level = inputs[0].level();
    let plevel = admission::pricing_level(level, &functional, &pricing);
    let mut price_us = Vec::new();
    for (_, spec) in arrivals.iter().take(64) {
        let prog = &programs[spec.program];
        let (_, ms) = timed(|| admission::price_request(prog, &pricing, plevel, &cost, &dev));
        price_us.push(ms * 1e3);
    }
    report.set("admission.price_us", median(&price_us));
    // The merged graph of one full window, built as admission builds it.
    let mut graph = OpGraph::default();
    for (i, (_, spec)) in arrivals.iter().take(WINDOW).enumerate() {
        programs[spec.program].append_kernel_graph(&mut graph, &pricing, plevel, &cost, i);
    }
    let est = crate::layers::time_us(5, 20.0, || {
        std::hint::black_box(neo_sched::estimate_makespan_best(
            &graph,
            &dev,
            cfg.admission.max_streams,
        ));
    });
    report.set("sched.estimate_us", est);
}
