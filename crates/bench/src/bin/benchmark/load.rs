//! The load generator: one thread and one connection speaking the
//! PROTOCOL.md wire, with an open-loop phase (seeded Poisson arrivals,
//! latency timed from each request's scheduled send time) and a
//! closed-loop saturation phase (a fixed number of requests in flight).
//! Every answer is checked against its expected prediction as it arrives.

use crate::spec::{Key, Workload, DRAIN_SECONDS, SAT_IN_FLIGHT, WINDOW_SECONDS};
use crate::stats::{Mean, Schedule, Windows};
use crate::stream::{
    fresh_spec, Planned, Stream, Target, FRESH_EXECUTOR, FRESH_MODEL, SAMPLE_SHAPE,
};
use mersit_serve::wire::{self, Frame, WireRequest, WireResponse};
use mersit_tensor::Tensor;
use std::collections::HashMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Largest frame the client accepts (responses are 40 bytes; error
/// frames carry a short message).
const MAX_FRAME: usize = 1 << 20;
/// How long the open phase's reader blocks before checking whether the
/// writer is done. Answers end the wait as soon as they arrive.
const READ_SLICE: Duration = Duration::from_millis(20);
/// Sent requests the writer may announce before the reader takes them.
const FEED_CAPACITY: usize = 4096;

/// A blocking client connection with a frame decoder.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    chunk: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A server that stops reading fails the run instead of hanging it.
        stream.set_write_timeout(Some(Duration::from_secs_f64(DRAIN_SECONDS)))?;
        Ok(Self {
            stream,
            buf: Vec::new(),
            chunk: vec![0; 64 * 1024],
        })
    }

    /// Waits up to `wait` for bytes, then decodes every complete frame.
    fn recv(&mut self, wait: Duration, out: &mut Vec<Frame>) -> io::Result<()> {
        self.stream
            .set_read_timeout(Some(wait.max(Duration::from_micros(1))))?;
        match self.stream.read(&mut self.chunk) {
            Ok(0) => {
                return Err(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))
            }
            Ok(n) => self.buf.extend_from_slice(&self.chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
        let mut at = 0;
        while let Some((frame, used)) = wire::decode_frame(&self.buf[at..], MAX_FRAME)
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()))?
        {
            out.push(frame);
            at += used;
        }
        self.buf.drain(..at);
        Ok(())
    }
}

/// Request outcomes across every phase of one server.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Responses with the wrong prediction or an unknown id.
    pub wrong: u64,
    /// Error frames received.
    pub error_frames: u64,
    /// Requests still unanswered `DRAIN_SECONDS` after their phase.
    pub lost: u64,
    /// `(spec index, sample, prediction)` of never-seen-spec answers.
    pub fresh: Vec<(usize, usize, usize)>,
}

impl Tally {
    /// Requests that count against `error_frac`.
    pub fn failed(&self) -> u64 {
        self.wrong + self.error_frames + self.lost
    }

    /// Adds another server's outcomes to these.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.wrong += other.wrong;
        self.error_frames += other.error_frames;
        self.lost += other.lost;
        self.fresh.extend(other.fresh);
    }
}

/// One answered request, as the phases see it.
struct Answer {
    due: Instant,
    sent: Instant,
    at: Instant,
    resp: WireResponse,
}

struct Pending {
    due: Instant,
    sent: Instant,
    target: Target,
    sample: usize,
}

/// What the open phase measured.
#[derive(Debug, Default)]
pub struct OpenStats {
    /// Scheduled send time to response, µs.
    pub latency_us: Vec<f64>,
    /// Client round trip minus the server's `total_us`, µs.
    pub overhead_us: Vec<f64>,
    /// The server's `queue_us`.
    pub queue_us: Vec<f64>,
    /// The server's `total_us − queue_us`.
    pub compute_us: Vec<f64>,
    /// The server's `batch_size`.
    pub batch: Mean,
    /// Actual minus scheduled send time, µs.
    pub lateness_us: Vec<f64>,
    /// Requests still in flight when the phase ended.
    pub backlog: usize,
}

/// What the saturation phase measured.
#[derive(Debug)]
pub struct SatStats {
    /// Completions per window from the phase start.
    pub windows: Windows,
    /// The server's `batch_size`.
    pub batch: Mean,
}

/// Request frames encoded once per (target, sample) with id 0; sending
/// copies one and writes the id in. Between waking and writing, the open
/// phase's writer then only copies bytes, so its lateness reflects the
/// host rather than the encoder.
#[derive(Default)]
struct Templates(HashMap<(Target, usize), Vec<u8>>);

impl Templates {
    fn ensure(&mut self, workload: &Workload, samples: &[Tensor], p: Planned) {
        self.0.entry((p.target, p.sample)).or_insert_with(|| {
            let (model, spec, executor) = match p.target {
                Target::Warm(k) => {
                    let Key {
                        model,
                        spec,
                        executor,
                    } = workload.keys[k];
                    (model, spec.map(str::to_owned), executor)
                }
                Target::Fresh(i) => (FRESH_MODEL, Some(fresh_spec(i)), FRESH_EXECUTOR),
            };
            let mut out = Vec::new();
            wire::encode_request(
                &WireRequest {
                    id: 0,
                    model: model.to_owned(),
                    assignment: spec,
                    executor: Some(executor),
                    shape: SAMPLE_SHAPE.to_vec(),
                    data: samples[p.sample].data().to_vec(),
                },
                &mut out,
            );
            out
        });
    }

    /// Appends request `id` for `p` (whose template exists) to `out`.
    fn put(&self, p: Planned, id: u64, out: &mut Vec<u8>) {
        let at = out.len() + wire::HEADER_LEN;
        out.extend_from_slice(&self.0[&(p.target, p.sample)]);
        // The id is the first payload field of a request frame.
        out[at..at + 8].copy_from_slice(&id.to_be_bytes());
    }
}

/// One connection's worth of load against one server. The thread that
/// owns the session reads and checks every answer; the open phase adds a
/// writer thread, so at most two threads generate load.
pub struct Session<'a> {
    client: Client,
    workload: &'static Workload,
    samples: &'a [Tensor],
    /// `expected[key][sample]`: the prediction a warm key must return.
    expected: &'a [Vec<usize>],
    templates: Templates,
    in_flight: HashMap<u64, Pending>,
    /// Requests the open phase's writer has sent, announced before their
    /// bytes leave so an answer never arrives for an unknown id.
    feed: Option<mpsc::Receiver<(u64, Pending)>>,
    next_id: u64,
    out: Vec<u8>,
    frames: Vec<Frame>,
    tally: Tally,
}

impl<'a> Session<'a> {
    pub fn connect(
        addr: SocketAddr,
        workload: &'static Workload,
        samples: &'a [Tensor],
        expected: &'a [Vec<usize>],
    ) -> io::Result<Self> {
        Ok(Self {
            client: Client::connect(addr)?,
            workload,
            samples,
            expected,
            templates: Templates::default(),
            in_flight: HashMap::new(),
            feed: None,
            next_id: 0,
            out: Vec::new(),
            frames: Vec::new(),
            tally: Tally::default(),
        })
    }

    /// Closes the connection and returns the outcomes.
    pub fn finish(self) -> Tally {
        self.tally
    }

    fn track(&mut self, id: u64, p: Pending) {
        self.in_flight.insert(id, p);
        self.tally.attempted += 1;
    }

    /// Adds one request, sent now, to the send buffer.
    fn queue(&mut self, p: Planned) {
        let id = self.next_id;
        self.next_id += 1;
        self.templates.ensure(self.workload, self.samples, p);
        self.templates.put(p, id, &mut self.out);
        let now = Instant::now();
        self.track(
            id,
            Pending {
                due: now,
                sent: now,
                target: p.target,
                sample: p.sample,
            },
        );
    }

    fn flush(&mut self) -> io::Result<()> {
        self.client.stream.write_all(&self.out)?;
        self.out.clear();
        Ok(())
    }

    fn absorb_feed(&mut self) {
        while let Some((id, p)) = self.feed.as_ref().and_then(|f| f.try_recv().ok()) {
            self.track(id, p);
        }
    }

    /// Reads for up to `wait`, checks every answer, and hands each
    /// successful one to `sink`.
    fn pump(&mut self, wait: Duration, sink: &mut dyn FnMut(&Answer)) -> io::Result<()> {
        let mut frames = std::mem::take(&mut self.frames);
        self.client.recv(wait, &mut frames)?;
        let at = Instant::now();
        self.absorb_feed();
        for frame in frames.drain(..) {
            match frame {
                Frame::Response(resp) => {
                    let Some(p) = self.in_flight.remove(&resp.id) else {
                        self.tally.wrong += 1;
                        continue;
                    };
                    let prediction = resp.prediction as usize;
                    match p.target {
                        Target::Warm(k) if self.expected[k][p.sample] != prediction => {
                            self.tally.wrong += 1;
                            continue;
                        }
                        Target::Warm(_) => {}
                        Target::Fresh(i) => self.tally.fresh.push((i, p.sample, prediction)),
                    }
                    sink(&Answer {
                        due: p.due,
                        sent: p.sent,
                        at,
                        resp,
                    });
                }
                Frame::Error(e) => {
                    eprintln!("error frame for request {}: {}", e.id, e.message);
                    self.in_flight.remove(&e.id);
                    self.tally.error_frames += 1;
                }
                Frame::Request(_) | Frame::Ping(_) | Frame::Pong(_) => self.tally.wrong += 1,
            }
        }
        self.frames = frames;
        Ok(())
    }

    /// Waits for every in-flight request; those unanswered after
    /// `DRAIN_SECONDS` count as lost.
    fn drain(&mut self, sink: &mut dyn FnMut(&Answer)) -> io::Result<()> {
        let deadline = Instant::now() + Duration::from_secs_f64(DRAIN_SECONDS);
        while !self.in_flight.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            self.pump(deadline - now, sink)?;
        }
        self.tally.lost += self.in_flight.len() as u64;
        self.in_flight.clear();
        Ok(())
    }

    /// Sends one request per warm key and waits for all of them: the
    /// plans are built and the first answers received.
    pub fn warm_keys(&mut self) -> io::Result<()> {
        for k in 0..self.workload.keys.len() {
            self.queue(Planned {
                target: Target::Warm(k),
                sample: k % self.samples.len(),
            });
        }
        self.flush()?;
        self.drain(&mut |_| {})
    }

    /// Open loop for `seconds`: a writer thread sends each request at its
    /// scheduled time whatever the server does, so a stall delays every
    /// later request and shows in their latency, timed from the schedule.
    pub fn open_phase(
        &mut self,
        schedule: Schedule,
        stream: &mut Stream,
        seconds: f64,
    ) -> io::Result<OpenStats> {
        // Everything the writer sends is decided and encoded up front.
        // Room for 10% more arrivals than expected: the buffer is never
        // reallocated, so the client's memory stays steady in `peak_rss_mb`.
        let mut plan = Vec::with_capacity((self.workload.rate * seconds * 1.1) as usize + 64);
        plan.extend(schedule.take_while(|&t| t < seconds).map(|t| {
            let p = stream.next().expect("the stream never ends");
            (Duration::from_secs_f64(t), p)
        }));
        for &(_, p) in &plan {
            self.templates.ensure(self.workload, self.samples, p);
        }
        let templates = std::mem::take(&mut self.templates);
        let mut st = OpenStats {
            latency_us: Vec::with_capacity(plan.len()),
            overhead_us: Vec::with_capacity(plan.len()),
            queue_us: Vec::with_capacity(plan.len()),
            compute_us: Vec::with_capacity(plan.len()),
            batch: Mean::default(),
            lateness_us: Vec::with_capacity(plan.len()),
            backlog: 0,
        };
        let (tx, rx) = mpsc::sync_channel(FEED_CAPACITY);
        self.feed = Some(rx);
        let mut wire_out = self.client.stream.try_clone()?;
        let first_id = self.next_id;
        self.next_id += plan.len() as u64;
        let start = Instant::now();
        let (to_send, tpl) = (&plan, &templates);
        let writer = move || -> io::Result<()> {
            let mut buf = Vec::new();
            for (id, &(offset, p)) in (first_id..).zip(to_send) {
                let due = start + offset;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                buf.clear();
                tpl.put(p, id, &mut buf);
                let sent = Instant::now();
                let pending = Pending {
                    due,
                    sent,
                    target: p.target,
                    sample: p.sample,
                };
                if tx.send((id, pending)).is_err() {
                    break;
                }
                wire_out.write_all(&buf)?;
            }
            Ok(())
        };
        let mut sink = |a: &Answer| {
            let us = |d: Duration| d.as_secs_f64() * 1e6;
            st.latency_us.push(us(a.at - a.due));
            st.lateness_us.push(us(a.sent - a.due));
            st.overhead_us
                .push(us(a.at - a.sent) - a.resp.total_us as f64);
            st.queue_us.push(a.resp.queue_us as f64);
            st.compute_us
                .push(a.resp.total_us.saturating_sub(a.resp.queue_us) as f64);
            st.batch.add(f64::from(a.resp.batch_size));
        };
        let result = std::thread::scope(|s| {
            let handle = s.spawn(writer);
            let mut read = Ok(());
            while read.is_ok() && !handle.is_finished() {
                read = self.pump(READ_SLICE, &mut sink);
            }
            if read.is_err() {
                // Unblocks a writer waiting on a full feed.
                self.feed = None;
            }
            let wrote = handle.join().expect("the writer thread panicked");
            read.and(wrote)
        });
        self.absorb_feed();
        self.feed = None;
        self.templates = templates;
        result?;
        let backlog = self.in_flight.len();
        self.drain(&mut sink)?;
        st.backlog = backlog;
        Ok(st)
    }

    /// Closed loop for `seconds` with `SAT_IN_FLIGHT` requests always
    /// outstanding on the one connection.
    pub fn sat_phase(&mut self, stream: &mut Stream, seconds: f64) -> io::Result<SatStats> {
        let mut st = SatStats {
            windows: Windows::new(WINDOW_SECONDS),
            batch: Mean::default(),
        };
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(seconds);
        let mut sink = |a: &Answer| {
            st.windows.add((a.at - start).as_secs_f64());
            st.batch.add(f64::from(a.resp.batch_size));
        };
        loop {
            let now = Instant::now();
            if now >= end {
                break;
            }
            while self.in_flight.len() < SAT_IN_FLIGHT {
                self.queue(stream.next_warm());
            }
            self.flush()?;
            self.pump(end - now, &mut sink)?;
        }
        self.drain(&mut sink)?;
        Ok(st)
    }
}
