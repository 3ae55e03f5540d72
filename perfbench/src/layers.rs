//! Timing adapters for the traced run.
//!
//! [`Timed`] wraps a value at one of the simulation kernel's trait
//! boundaries — a [`Process`] (the node stack), a [`Medium`] (the network)
//! or a [`TraceSink`] (the message recorder) — and charges the host time of
//! every call it forwards to a [`Layer`]. The kernel never calls one of
//! these boundaries from inside another (sends are queued by a handler and
//! handed to the medium after it returns), so the charged intervals are
//! disjoint: the phase time left outside every charged call is kernel
//! self-time plus the benchmark's own bookkeeping, which it charges to
//! [`Layer::Check`] itself.
//!
//! The untraced run never instantiates these types, so its hot path has no
//! clock reads and no branches.

use std::cell::RefCell;
use std::time::Instant;

use fuse_core::{NS_LIVENESS, NS_OVERLAY};
use fuse_sim::process::Ctx;
use fuse_sim::{Medium, Payload, ProcId, Process, SimTime, TraceSink, Verdict};
use fuse_util::TimerKey;
use rand::rngs::StdRng;

/// Where a charged interval of host time went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Medium::unicast` on the network model.
    Net,
    /// Overlay messages (pings, acks, routed envelopes, maintenance) and
    /// overlay timers.
    Overlay,
    /// FUSE messages and timers, link-broken upcalls and the benchmark's
    /// calls into the FUSE API.
    Core,
    /// Shared-plane probes (direct and indirect) and detector timers.
    Liveness,
    /// The message-accounting trace sink.
    Trace,
    /// The benchmark's own completion and correctness checks.
    Check,
}

/// Calls into and host time spent in one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Acc {
    /// Calls charged.
    pub calls: u64,
    /// Nanoseconds charged.
    pub ns: u64,
}

/// Totals of every layer plus the medium's verdict counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Clock {
    /// Per-layer totals, indexed by `Layer as usize`.
    pub acc: [Acc; 6],
    /// `Verdict::Break`s the medium returned.
    pub breaks: u64,
    /// `Verdict::Drop`s the medium returned.
    pub drops: u64,
}

impl Clock {
    /// Totals of one layer.
    pub fn get(&self, l: Layer) -> Acc {
        self.acc[l as usize]
    }

    /// Nanoseconds charged to any layer.
    pub fn charged_ns(&self) -> u64 {
        self.acc.iter().map(|a| a.ns).sum()
    }

    /// Growth since an earlier reading.
    pub fn since(&self, earlier: &Clock) -> Clock {
        let mut d = *self;
        for (a, e) in d.acc.iter_mut().zip(earlier.acc.iter()) {
            a.calls -= e.calls;
            a.ns -= e.ns;
        }
        d.breaks -= earlier.breaks;
        d.drops -= earlier.drops;
        d
    }
}

thread_local! {
    static CLOCK: RefCell<Clock> = RefCell::new(Clock::default());
}

/// Charges the time since `start` to `layer`.
pub fn charge(layer: Layer, start: Instant) {
    let ns = start.elapsed().as_nanos() as u64;
    CLOCK.with(|c| {
        let a = &mut c.borrow_mut().acc[layer as usize];
        a.calls += 1;
        a.ns += ns;
    });
}

/// Current totals of this thread's clock.
pub fn read() -> Clock {
    CLOCK.with(|c| *c.borrow())
}

/// Layer of a message, by its class label.
pub fn msg_layer(class: &str) -> Layer {
    if class.starts_with("overlay.probe-") {
        Layer::Liveness
    } else if class.starts_with("overlay.") {
        Layer::Overlay
    } else {
        // `fuse.*`, plus application payloads, which the FUSE API layer
        // dispatches (none flow in these workloads).
        Layer::Core
    }
}

/// Layer of a timer, by its key's namespace.
pub fn timer_layer(key: TimerKey) -> Layer {
    match key.ns {
        NS_OVERLAY => Layer::Overlay,
        NS_LIVENESS => Layer::Liveness,
        // NS_FUSE, plus application timers (none in these workloads).
        _ => Layer::Core,
    }
}

/// A boundary value whose forwarded calls are timed.
#[derive(Debug, Default)]
pub struct Timed<T>(pub T);

impl<P: Process<Timer = TimerKey>> Process for Timed<P> {
    type Msg = P::Msg;
    type Timer = TimerKey;

    fn on_boot(&mut self, ctx: &mut Ctx<'_, P::Msg, TimerKey>) {
        // Boots happen while the world is built, before any timed phase.
        self.0.on_boot(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, P::Msg, TimerKey>, from: ProcId, msg: P::Msg) {
        let layer = msg_layer(msg.class());
        let t = Instant::now();
        self.0.on_message(ctx, from, msg);
        charge(layer, t);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, P::Msg, TimerKey>, key: TimerKey) {
        let layer = timer_layer(key);
        let t = Instant::now();
        self.0.on_timer(ctx, key);
        charge(layer, t);
    }

    fn on_link_broken(&mut self, ctx: &mut Ctx<'_, P::Msg, TimerKey>, peer: ProcId) {
        let t = Instant::now();
        self.0.on_link_broken(ctx, peer);
        charge(Layer::Core, t);
    }
}

impl<M: Medium> Medium for Timed<M> {
    fn unicast(
        &mut self,
        now: SimTime,
        rng: &mut StdRng,
        from: ProcId,
        to: ProcId,
        size: usize,
        class: &'static str,
    ) -> Verdict {
        let t = Instant::now();
        let v = self.0.unicast(now, rng, from, to, size, class);
        charge(Layer::Net, t);
        if !matches!(v, Verdict::Deliver { .. }) {
            CLOCK.with(|c| {
                let mut c = c.borrow_mut();
                match v {
                    Verdict::Break { .. } => c.breaks += 1,
                    _ => c.drops += 1,
                }
            });
        }
        v
    }

    fn node_up(&mut self, id: ProcId) {
        self.0.node_up(id);
    }

    fn node_down(&mut self, id: ProcId) {
        self.0.node_down(id);
    }
}

impl<M, S: TraceSink<M>> TraceSink<M> for Timed<S> {
    fn on_event(&mut self, at: SimTime, key: u64) {
        // Once per event and a no-op in the message recorder: timing it
        // would only add clock reads to the kernel's self-time.
        self.0.on_event(at, key);
    }

    fn on_send(
        &mut self,
        now: SimTime,
        from: ProcId,
        to: ProcId,
        msg: &M,
        size: usize,
        verdict: &Verdict,
    ) {
        let t = Instant::now();
        self.0.on_send(now, from, to, msg, size, verdict);
        charge(Layer::Trace, t);
    }

    fn on_deliver(&mut self, now: SimTime, from: ProcId, to: ProcId, msg: &M) {
        let t = Instant::now();
        self.0.on_deliver(now, from, to, msg);
        charge(Layer::Trace, t);
    }

    fn on_lifecycle(&mut self, now: SimTime, id: ProcId, up: bool) {
        self.0.on_lifecycle(now, id, up);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_are_liveness_other_overlay_is_overlay() {
        assert_eq!(msg_layer("overlay.probe-direct"), Layer::Liveness);
        assert_eq!(msg_layer("overlay.probe-indirect"), Layer::Liveness);
        assert_eq!(msg_layer("overlay.probe"), Layer::Overlay);
        assert_eq!(msg_layer("overlay.ping"), Layer::Overlay);
        assert_eq!(msg_layer("fuse.hard"), Layer::Core);
    }

    #[test]
    fn clock_deltas_subtract_every_field() {
        let start = Instant::now();
        let before = read();
        charge(Layer::Net, start);
        charge(Layer::Check, start);
        let d = read().since(&before);
        assert_eq!(d.get(Layer::Net).calls, 1);
        assert_eq!(d.get(Layer::Check).calls, 1);
        assert_eq!(d.get(Layer::Core).calls, 0);
        assert_eq!(
            d.charged_ns(),
            d.get(Layer::Net).ns + d.get(Layer::Check).ns
        );
    }
}
