//! Admission-path stress: queue-full rejection under backpressure,
//! graceful shutdown with in-flight requests (everything admitted gets
//! answered), and the validation / internal-error paths.
//!
//! One `#[test]` fn: the internal-error legs swap the process-global
//! panic hook, which must not race another test in this binary.

use mersit_nn::layers::{Linear, Sequential};
use mersit_nn::param::{ParamVisitor, RefParamVisitor};
use mersit_nn::{Ctx, InputKind, Layer, Model};
use mersit_ptq::calibrate;
use mersit_serve::{Request, ServeConfig, ServeError, Server};
use mersit_tensor::{Rng, Tensor};

fn toy_model(rng: &mut Rng) -> (Model, Tensor) {
    let mut net = Sequential::new();
    net.push(Linear::new(6, 4, rng));
    let model = Model {
        name: "toy".into(),
        net,
        input: InputKind::Image,
    };
    let x = Tensor::randn(&[8, 6], 1.0, rng);
    (model, x)
}

fn one_sample(rng: &mut Rng) -> Tensor {
    Tensor::randn(&[6], 1.0, rng)
}

/// An identity layer whose read-only parameter visit panics. Only plan
/// builds visit parameters, so it breaks exactly the quantized requests.
struct PanicOnPlanBuild;

impl Layer for PanicOnPlanBuild {
    fn forward(&mut self, x: Tensor, _ctx: &mut Ctx<'_>) -> Tensor {
        x
    }

    fn forward_ref(&self, x: Tensor, _ctx: &mut Ctx<'_>) -> Tensor {
        x
    }

    fn backward(&mut self, dout: Tensor) -> Tensor {
        dout
    }

    fn visit_params(&mut self, _prefix: &str, _f: &mut ParamVisitor<'_>) {}

    fn visit_params_ref(&self, _prefix: &str, _f: &mut RefParamVisitor<'_>) {
        panic!("plan build panics on purpose");
    }

    fn kind(&self) -> &'static str {
        "panic_on_plan_build"
    }
}

#[test]
fn backpressure_validation_and_graceful_shutdown() {
    let mut rng = Rng::new(0x57E55);

    // --- Queue-full rejection under backpressure. The batcher flushes a
    // group immediately once it holds the whole queue, so to keep
    // requests queued we first park the batcher on a slow warm-up flush
    // (big bit-true plan build), then split the backlog across two
    // format keys — neither group covers the queue, so both wait out the
    // (long) deadline.
    {
        let (model, x) = toy_model(&mut rng);
        let cal = calibrate(&model, &x, 4);
        let mut slow_net = Sequential::new();
        slow_net.push(Linear::new(256, 256, &mut rng));
        let slow = Model {
            name: "slow".into(),
            net: slow_net,
            input: InputKind::Image,
        };
        let slow_x = Tensor::randn(&[4, 256], 1.0, &mut rng);
        let slow_cal = calibrate(&slow, &slow_x, 4);
        let cfg = ServeConfig::default()
            .max_batch(64) // never flush on size...
            .max_wait_us(300_000) // ...and not on time within this test
            .queue_depth(4);
        let mut server = Server::start(vec![(model, cal), (slow, slow_cal)], cfg);
        let warmup = server
            .submit(
                Request::new("slow", Tensor::randn(&[256], 1.0, &mut rng))
                    .format("Posit(8,3)")
                    .executor(mersit_ptq::Executor::BitTrue),
            )
            .expect("warm-up admitted");
        // Wait until the batcher has pulled the warm-up out of the queue
        // and entered its flush (the batches counter bumps at flush
        // start); everything submitted from here queues behind it.
        while server.stats().batches < 1 {
            std::thread::yield_now();
        }
        let tickets: Vec<_> = (0..4)
            .map(|i| {
                let fmt = if i % 2 == 0 { "INT8" } else { "Posit(8,1)" };
                server
                    .submit(Request::new("toy", one_sample(&mut rng)).format(fmt))
                    .expect("within queue depth")
            })
            .collect();
        // The 5th must bounce with backpressure, not block or queue.
        match server.submit(Request::new("toy", one_sample(&mut rng)).format("INT8")) {
            Err(ServeError::QueueFull { depth: 4 }) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        // Graceful shutdown with 4 requests still queued: all answered,
        // one batch per format key.
        server.shutdown();
        assert_eq!(warmup.wait().expect("warm-up served").batch_size, 1);
        let mut sizes = Vec::new();
        for t in tickets {
            let resp = t.wait().expect("drained on shutdown");
            sizes.push(resp.batch_size);
        }
        assert!(
            sizes.iter().all(|&s| s == 2),
            "drain batched each key's pair: {sizes:?}"
        );
        let stats = server.stats();
        assert_eq!(stats.submitted, 5);
        assert_eq!(stats.completed, 5);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.failed, 0);
        // Post-shutdown submissions are refused, not dropped.
        match server.submit(Request::new("toy", one_sample(&mut rng))) {
            Err(ServeError::ShuttingDown) => {}
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
    }

    // --- Validation errors never occupy queue slots.
    {
        let (model, x) = toy_model(&mut rng);
        let cal = calibrate(&model, &x, 4);
        let server = Server::start(vec![(model, cal)], ServeConfig::default());
        match server.submit(Request::new("nope", one_sample(&mut rng))) {
            Err(ServeError::UnknownModel(m)) => assert_eq!(m, "nope"),
            other => panic!("expected UnknownModel, got {other:?}"),
        }
        match server.submit(Request::new("toy", one_sample(&mut rng)).format("MERSIT(9,9)")) {
            Err(ServeError::BadFormat(_)) => {}
            other => panic!("expected BadFormat, got {other:?}"),
        }
        assert_eq!(server.stats().submitted, 0);
    }

    // --- A compute panic fails its batch with Internal; the server and
    // differently-shaped batch-mates keep working. Shape is part of the
    // grouping key, so the bad request batches alone.
    {
        let (model, x) = toy_model(&mut rng);
        let cal = calibrate(&model, &x, 4);
        let cfg = ServeConfig::default().max_wait_us(0);
        let server = Server::start(vec![(model, cal)], cfg);
        let bad = Tensor::randn(&[9], 1.0, &mut rng); // Linear expects 6
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the expected panic
        let bad_result = server.infer(Request::new("toy", bad));
        std::panic::set_hook(prev);
        match bad_result {
            Err(ServeError::Internal(_)) => {}
            other => panic!("expected Internal, got {other:?}"),
        }
        // Server survived and still serves well-formed requests.
        let ok = server.infer(Request::new("toy", one_sample(&mut rng)).format("INT8"));
        assert!(ok.is_ok(), "server dead after batch panic: {ok:?}");
        let stats = server.stats();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
    }

    // --- A plan build that panics fails its batch with Internal and
    // leaves the plan cache usable: the next quantized request builds
    // again (and fails again), an FP32 request is still answered, and
    // stats() still reads the cache.
    {
        let (mut model, _) = toy_model(&mut rng);
        model.net.push(PanicOnPlanBuild);
        let x = Tensor::randn(&[8, 6], 1.0, &mut rng);
        let cal = calibrate(&model, &x, 4);
        let cfg = ServeConfig::default().max_wait_us(0);
        let server = Server::start(vec![(model, cal)], cfg);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the expected panics
        let quantized: Vec<_> = (0..2)
            .map(|_| server.infer(Request::new("toy", one_sample(&mut rng)).format("INT8")))
            .collect();
        std::panic::set_hook(prev);
        for result in quantized {
            match result {
                Err(ServeError::Internal(msg)) => assert_eq!(msg, "plan build panics on purpose"),
                other => panic!("expected Internal, got {other:?}"),
            }
        }
        let ok = server.infer(Request::new("toy", one_sample(&mut rng)));
        assert!(
            ok.is_ok(),
            "FP32 request failed after a build panic: {ok:?}"
        );
        let stats = server.stats();
        assert_eq!(stats.failed, 2);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.cached_plans, 0);
    }

    // --- Shutdown via drop with a burst in flight: every ticket resolves.
    {
        let (model, x) = toy_model(&mut rng);
        let cal = calibrate(&model, &x, 4);
        let cfg = ServeConfig::default().max_batch(3).queue_depth(128);
        let server = Server::start(vec![(model, cal)], cfg);
        let tickets: Vec<_> = (0..17)
            .map(|i| {
                let fmt = if i % 2 == 0 { "INT8" } else { "Posit(8,1)" };
                server
                    .submit(Request::new("toy", one_sample(&mut rng)).format(fmt))
                    .expect("admission")
            })
            .collect();
        let stats_before = server.stats();
        assert_eq!(stats_before.submitted, 17);
        drop(server); // drains and joins
        let served = tickets
            .into_iter()
            .map(mersit_serve::Ticket::wait)
            .filter(Result::is_ok)
            .count();
        assert_eq!(served, 17, "drop must answer every admitted request");
    }
}
