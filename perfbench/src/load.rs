//! The closed-loop load: client threads that each wait for a reply before
//! sending the next request, plus a paced staleness probe.

use crate::stack::{title_value, Stack, BASE, TITLE};
use crate::trace::{self, Kind, Root};
use crate::{Sizes, Workload};
use bytes::Bytes;
use diff_index_core::read::read_exact;
use diff_index_core::IndexScheme;
use diff_index_ycsb::{KeyChooser, Uniform, Zipfian};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Most hits one client read asks for.
const READ_LIMIT: usize = 1000;
/// Row the probe owns; outside the `item…` key space of the clients.
const PROBE_ROW: &[u8] = b"probe-0000";
/// Fixed back-off between probe polls.
const POLL_BACKOFF: Duration = Duration::from_micros(200);
/// A probe entry not visible after this long fails the run.
const PROBE_TIMEOUT: Duration = Duration::from_secs(5);

/// One slice of the load window, with span recording on or off.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub secs: f64,
    pub traced: bool,
}

/// One timed operation: when it started (s since the window opened) and
/// how long it took (ns).
pub type Sample = (f64, f64);

/// What one load window produced.
#[derive(Debug, Default)]
pub struct LoadResult {
    pub update_ns: Vec<Sample>,
    pub read_ns: Vec<Sample>,
    /// Probe staleness, stamped with the probe put's start.
    pub staleness_ns: Vec<Sample>,
    /// Start of every client operation, s since the window opened.
    pub client_starts: Vec<f64>,
    /// Every operation issued, probe puts and polls included.
    pub attempted: u64,
    pub failed: u64,
    /// `get_by_index` calls and the hits they returned (all readers).
    pub reads: u64,
    pub hits: u64,
    /// Per phase: whether it was traced, and client operations per second.
    pub phase_ops_s: Vec<(bool, f64)>,
    /// Deepest AUQ backlog seen by the sampler.
    pub depth_max: usize,
    /// Correctness breaches seen while the load ran.
    pub breaches: Vec<String>,
}

impl LoadResult {
    fn absorb(&mut self, o: LoadResult) {
        self.update_ns.extend(o.update_ns);
        self.read_ns.extend(o.read_ns);
        self.staleness_ns.extend(o.staleness_ns);
        self.client_starts.extend(o.client_starts);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.reads += o.reads;
        self.hits += o.hits;
        self.breaches.extend(o.breaches);
    }
}

/// SplitMix64: the op-mix coin of one client thread.
struct Coin(u64);

impl Coin {
    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn chooser(zipfian: bool, n: u64, seed: u64) -> Box<dyn KeyChooser> {
    if zipfian {
        Box::new(Zipfian::new(n, seed))
    } else {
        Box::new(Uniform::new(n, seed))
    }
}

/// Run the load of `w` against `stack` through `phases`, with `w.clients()`
/// client threads and, if `probe`, the staleness probe. Under a
/// synchronous scheme the probe runs inside client 0 (its entry is visible
/// at the ack, so it never waits); under an asynchronous one it is a paced
/// thread of its own. `sample_depth` samples the AUQ backlog every few
/// milliseconds.
pub fn run(
    stack: &Stack,
    w: Workload,
    sizes: &Sizes,
    seed: u64,
    phases: &[Phase],
    probe: bool,
    sample_depth: bool,
) -> LoadResult {
    let stop = AtomicBool::new(false);
    let counters: Vec<AtomicU64> = (0..w.clients()).map(|_| AtomicU64::new(0)).collect();
    let mut out = LoadResult::default();
    let ctx = Ctx {
        stack,
        w,
        sizes,
        seed,
        stop: &stop,
        start: Instant::now(),
    };
    let sync = matches!(w.scheme(), IndexScheme::SyncFull | IndexScheme::SyncInsert);
    let new_probe = || probe.then(|| Probe::new(&ctx, sync));
    std::thread::scope(|s| {
        let clients: Vec<_> = counters
            .iter()
            .enumerate()
            .map(|(i, counter)| {
                let probe = if sync && i == 0 { new_probe() } else { None };
                let ctx = &ctx;
                s.spawn(move || client(ctx, i as u64, counter, probe))
            })
            .collect();
        let prober = if sync { None } else { new_probe() }.map(|mut p| {
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if let Some(wait) = p.next.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    p.step();
                }
                p.out
            })
        });

        let total = || {
            counters
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .sum::<u64>()
        };
        for phase in phases {
            trace::set_enabled(phase.traced);
            let (t0, ops0) = (Instant::now(), total());
            let end = t0 + Duration::from_secs_f64(phase.secs);
            loop {
                let now = Instant::now();
                if now >= end {
                    break;
                }
                if sample_depth {
                    out.depth_max = out.depth_max.max(stack.auq.depth());
                    std::thread::sleep((end - now).min(Duration::from_millis(5)));
                } else {
                    std::thread::sleep(end - now);
                }
            }
            let ops = total() - ops0;
            let ops_s = ops as f64 / t0.elapsed().as_secs_f64();
            out.phase_ops_s.push((phase.traced, ops_s));
        }
        stop.store(true, Ordering::SeqCst);
        trace::set_enabled(false);
        for c in clients {
            out.absorb(c.join().expect("client thread panicked"));
        }
        if let Some(p) = prober {
            out.absorb(p.join().expect("probe thread panicked"));
        }
    });
    out
}

/// What every load thread shares: the stack, the workload, and the window.
struct Ctx<'a> {
    stack: &'a Stack,
    w: Workload,
    sizes: &'a Sizes,
    seed: u64,
    stop: &'a AtomicBool,
    /// When the window opened; samples are stamped relative to it.
    start: Instant,
}

fn client(ctx: &Ctx, idx: u64, counter: &AtomicU64, mut probe: Option<Probe>) -> LoadResult {
    let Ctx {
        stack,
        w,
        sizes,
        seed,
        stop,
        start,
    } = *ctx;
    let thread_seed = seed ^ (idx + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut coin = Coin(thread_seed);
    let mut keys = chooser(w.zipfian(), sizes.rows, thread_seed ^ 1);
    let mut titles = chooser(w.zipfian(), sizes.title_cardinality, thread_seed ^ 2);
    let mut out = LoadResult::default();
    let mut ver = idx << 40;
    while !stop.load(Ordering::Relaxed) {
        if let Some(p) = probe.as_mut().filter(|p| Instant::now() >= p.next) {
            p.step();
        }
        let t0 = Instant::now();
        let at = (t0 - start).as_secs_f64();
        if coin.unit() < w.update_fraction() {
            let id = keys.next_key();
            ver += 1;
            let cols = stack.wl.updated_row(id, ver);
            let ok = {
                let _root = Root::begin(Kind::Update);
                stack.store.put(BASE, &stack.wl.row_key(id), &cols).is_ok()
            };
            out.update_ns.push((at, t0.elapsed().as_nanos() as f64));
            out.failed += u64::from(!ok);
        } else {
            let title = title_value(titles.next_key());
            let res = {
                let _root = Root::begin(Kind::Read);
                read_exact(stack.store.as_ref(), &stack.spec, &title, READ_LIMIT)
            };
            out.read_ns.push((at, t0.elapsed().as_nanos() as f64));
            out.reads += 1;
            match res {
                Ok(hits) => {
                    out.hits += hits.len() as u64;
                    if hits.iter().any(|h| h.values.first() != Some(&title)) {
                        out.breaches
                            .push("read returned a hit filed under another title".into());
                    }
                }
                Err(_) => out.failed += 1,
            }
        }
        out.client_starts.push(at);
        out.attempted += 1;
        counter.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(p) = probe {
        out.absorb(p.out);
    }
    out
}

/// Paced staleness probe: every `sizes.probe_interval`, put a fresh,
/// unique title on the probe row, then poll `get_by_index` for it with a
/// fixed back-off until the row appears. Staleness is the time from the
/// put's ack to the end of the first read that shows the entry. Under a
/// synchronous scheme that first read must be the first poll, and a read
/// of the previous title must no longer return the row.
struct Probe<'a> {
    stack: &'a Stack,
    interval: Duration,
    seed: u64,
    sync: bool,
    start: Instant,
    /// When the next probe is due.
    next: Instant,
    n: u64,
    previous: Option<Bytes>,
    out: LoadResult,
}

impl<'a> Probe<'a> {
    fn new(ctx: &Ctx<'a>, sync: bool) -> Self {
        Probe {
            stack: ctx.stack,
            interval: ctx.sizes.probe_interval,
            seed: ctx.seed,
            sync,
            start: ctx.start,
            next: ctx.start,
            n: 0,
            previous: None,
            out: LoadResult::default(),
        }
    }

    /// One timed `get_by_index`; `Some(true)` if it returned the probe row.
    fn read(&mut self, title: &Bytes) -> Option<bool> {
        let t0 = Instant::now();
        let res = {
            let _root = Root::begin(Kind::Read);
            read_exact(self.stack.store.as_ref(), &self.stack.spec, title, 16)
        };
        let out = &mut self.out;
        out.read_ns.push((
            (t0 - self.start).as_secs_f64(),
            t0.elapsed().as_nanos() as f64,
        ));
        out.attempted += 1;
        out.reads += 1;
        match res {
            Ok(hits) => {
                out.hits += hits.len() as u64;
                Some(hits.iter().any(|h| h.row.as_ref() == PROBE_ROW))
            }
            Err(_) => {
                out.failed += 1;
                None
            }
        }
    }

    /// One probe: put, poll until visible, check the previous title.
    fn step(&mut self) {
        self.next += self.interval;
        self.n += 1;
        let n = self.n;
        let title = Bytes::from(format!("probe{:016x}-{n:08}", self.seed));
        let cols = [
            (Bytes::from_static(TITLE.as_bytes()), title.clone()),
            (
                Bytes::from_static(b"item_price"),
                Bytes::from(format!("{n:010}")),
            ),
        ];
        let t0 = Instant::now();
        let put = {
            let _root = Root::begin(Kind::Update);
            self.stack.store.put(BASE, PROBE_ROW, &cols)
        };
        let ack = Instant::now();
        let at = (t0 - self.start).as_secs_f64();
        self.out.update_ns.push((at, (ack - t0).as_nanos() as f64));
        self.out.attempted += 1;
        if put.is_err() {
            self.out.failed += 1;
            return;
        }
        let mut polls = 0;
        loop {
            polls += 1;
            if self.read(&title) == Some(true) {
                self.out
                    .staleness_ns
                    .push((at, ack.elapsed().as_nanos() as f64));
                break;
            }
            if ack.elapsed() > PROBE_TIMEOUT {
                self.out.failed += 1;
                let breach = format!("probe {n}: entry not visible {PROBE_TIMEOUT:?} after ack");
                self.out.breaches.push(breach);
                break;
            }
            std::thread::sleep(POLL_BACKOFF);
        }
        if self.sync && polls > 1 {
            self.out
                .breaches
                .push(format!("probe {n}: synchronous index missed an acked put"));
        }
        if let (true, Some(old)) = (self.sync, self.previous.take()) {
            if self.read(&old) == Some(true) {
                self.out
                    .breaches
                    .push(format!("probe {n}: old title still returns the row"));
            }
        }
        self.previous = Some(title);
    }
}
