//! Assembles the monitor's roles in this process over loopback TCP, the
//! way `sdcimon` assembles them across processes: per shard a PULL
//! endpoint, an `Aggregator` over a metered `StoreStack`, the feed broker
//! and the store RPC server; in front of two or more shards a
//! `ScatterStore` behind its own store RPC server; on the collector side a
//! `TcpPush` (one shard) or a `ShardRouter`; and one `EventConsumer` per
//! shard reading the feed with `RemoteStore` backfill.

use sdci_core::{
    Aggregator, EventBackend, EventConsumer, FeedMessage, SequencedEvent, ShardMap, StoreStack,
};
use sdci_mq::transport::{Publish, PublishOutcome, PullSubscriber, Subscribe};
use sdci_mq::Message;
use sdci_net::{
    NetConfig, RemoteStore, ScatterStore, ShardRouter, StoreServer, TcpBroker, TcpPullServer,
    TcpPush, TcpSubscriber,
};
use sdci_types::FileEvent;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A live consumer: the feed over TCP, backfill over store RPC.
pub type Consumer = EventConsumer<TcpSubscriber<FeedMessage>, RemoteStore>;

/// Thread name the aggregators are started from; their ingest and
/// publish threads inherit it, which lets per-thread CPU be attributed.
pub const AGG_THREAD: &str = "pb-agg";

/// The collector's publisher: one push pipe, or a router over shards.
#[derive(Clone)]
pub enum Sender {
    Push(TcpPush<FileEvent>),
    Router(ShardRouter),
}

impl Publish<FileEvent> for Sender {
    fn publish(&self, topic: &str, payload: FileEvent) -> PublishOutcome {
        match self {
            Sender::Push(p) => p.publish(topic, payload),
            Sender::Router(r) => r.publish(topic, payload),
        }
    }
}

impl Sender {
    /// Waits until everything sent has been acknowledged.
    pub fn drain(&self, timeout: Duration) -> bool {
        match self {
            Sender::Push(p) => p.drain(timeout),
            Sender::Router(r) => r.drain(timeout),
        }
    }
}

/// A feed subscription several consumers use one after another, so a
/// replay does not pay for a new connection and its threads.
#[derive(Clone)]
pub struct SharedFeed(Arc<TcpSubscriber<FeedMessage>>);

impl Subscribe<FeedMessage> for SharedFeed {
    fn recv(&self) -> Option<Message<FeedMessage>> {
        self.0.recv()
    }

    fn try_recv(&self) -> Option<Message<FeedMessage>> {
        self.0.try_recv()
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Message<FeedMessage>> {
        self.0.recv_timeout(timeout)
    }
}

/// One aggregator node.
pub struct Shard {
    pub pull: TcpPullServer<FileEvent>,
    pub agg: Aggregator<dyn EventBackend>,
    pub feed: TcpBroker<FeedMessage>,
    pub store_srv: StoreServer,
    pub store: Arc<dyn EventBackend>,
}

/// The assembled monitor.
pub struct Pipeline {
    pub shards: Vec<Shard>,
    /// The scatter front (two or more shards): its RPC server and a
    /// handle sharing the scatter's counters.
    pub front: Option<(StoreServer, ScatterStore)>,
    pub sender: Sender,
    /// One live consumer per shard, positioned after the prefill.
    pub consumers: Vec<Consumer>,
    pub cfg: NetConfig,
}

/// Store capacity, as `sdcimon` defaults it: above any run's event count, so nothing rotates
/// out and every replay and query sees the whole history.
const STORE_CAPACITY: usize = 1_000_000;
const LOCALHOST: &str = "127.0.0.1:0";

fn io(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Polls `ready` every 100 µs until it holds or `timeout` passes.
fn wait_until(timeout: Duration, mut ready: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while !ready() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    true
}

impl Pipeline {
    /// Starts every role. `prefill[s]` is inserted into shard `s`'s store
    /// through its public insert path before that shard's aggregator
    /// starts; `warmup` is then sent through the whole pipeline, and this
    /// returns once shard `s`'s consumer has delivered `per_shard[s]` of it.
    pub fn start(
        prefill: Vec<Vec<SequencedEvent>>,
        warmup: Vec<FileEvent>,
        per_shard: &[usize],
    ) -> Result<Pipeline, String> {
        let cfg = NetConfig::default();
        let mut shards = Vec::with_capacity(prefill.len());
        for batch in prefill {
            let pull = TcpPullServer::<FileEvent>::bind(LOCALHOST, 65_536, cfg.clone())
                .map_err(io("bind pull"))?;
            let store = StoreStack::segmented(STORE_CAPACITY).metered("sdci_store").build();
            if !batch.is_empty() {
                store.insert_batch(batch).map_err(|e| format!("prefill: {e}"))?;
            }
            let events = PullSubscriber::new(pull.pull(), "events/remote");
            let backend = Arc::clone(&store);
            let agg = std::thread::Builder::new()
                .name(AGG_THREAD.into())
                .spawn(move || Aggregator::start_with_backend(events, backend, 65_536))
                .map_err(io("spawn aggregator"))?
                .join()
                .map_err(|_| "aggregator start panicked".to_string())?;
            let feed = TcpBroker::serve(agg.feed().clone(), LOCALHOST, cfg.clone())
                .map_err(io("bind feed"))?;
            let store_srv = StoreServer::bind(LOCALHOST, Arc::clone(&store), cfg.clone())
                .map_err(io("bind store"))?;
            shards.push(Shard { pull, agg, feed, store_srv, store });
        }
        let front = if shards.len() > 1 {
            let legs: Vec<(u32, SocketAddr)> = shards
                .iter()
                .enumerate()
                .map(|(i, s)| (i as u32, s.store_srv.local_addr()))
                .collect();
            let scatter = ScatterStore::new(legs, cfg.clone());
            let srv = StoreServer::bind(LOCALHOST, scatter.clone(), cfg.clone())
                .map_err(io("bind front"))?;
            Some((srv, scatter))
        } else {
            None
        };
        let sender = if shards.len() > 1 {
            let map = ShardMap::new(shards.iter().map(|s| s.pull.local_addr().to_string()));
            Sender::Router(
                ShardRouter::connect(map, "pb-collector", cfg.clone()).map_err(io("router"))?,
            )
        } else {
            Sender::Push(TcpPush::connect(shards[0].pull.local_addr(), "pb-collector", cfg.clone()))
        };
        let consumers = shards
            .iter()
            .map(|s| {
                let feed = TcpSubscriber::connect(s.feed.local_addr(), &["feed/"], cfg.clone());
                let store = RemoteStore::connect(s.store_srv.local_addr(), cfg.clone());
                EventConsumer::new(feed, store, s.store.last_seq())
            })
            .collect();
        let mut p = Pipeline { shards, front, sender, consumers, cfg };
        p.wait_ready()?;
        p.warm_up(warmup, per_shard)?;
        Ok(p)
    }

    /// Readiness without timers: every push pipe accepted, and every
    /// feed subscription live — shown by a probe heartbeat (seq 0, which
    /// consumers ignore) leaving the broker as a frame.
    fn wait_ready(&mut self) -> Result<(), String> {
        let limit = Duration::from_secs(10);
        for (i, s) in self.shards.iter().enumerate() {
            if !wait_until(limit, || s.pull.stats().accepted >= 1) {
                return Err(format!("shard {i}: push pipe never connected"));
            }
            let probe = s.agg.feed().publisher();
            let live = wait_until(limit, || {
                probe.publish("feed/all", FeedMessage::Heartbeat { last_seq: 0 });
                s.feed.stats().frames_out >= 1
            });
            if !live {
                return Err(format!("shard {i}: feed subscription never went live"));
            }
        }
        Ok(())
    }

    /// Sends the warm-up batch end to end and waits for every consumer to
    /// deliver its share.
    fn warm_up(&mut self, warmup: Vec<FileEvent>, per_shard: &[usize]) -> Result<(), String> {
        for ev in warmup {
            self.sender.publish("events/mdt0", ev);
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        for (i, (c, want)) in self.consumers.iter_mut().zip(per_shard).enumerate() {
            let mut got = 0;
            while got < *want {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(format!("shard {i}: warm-up delivered {got} of {want}"));
                }
                if c.next_timeout(left.min(Duration::from_millis(50))).is_some() {
                    got += 1;
                }
            }
        }
        Ok(())
    }

    /// The store RPC address queries go to: the scatter front when there
    /// is one, else the single store.
    pub fn query_addr(&self) -> SocketAddr {
        match &self.front {
            Some((srv, _)) => srv.local_addr(),
            None => self.shards[0].store_srv.local_addr(),
        }
    }

    /// One feed subscription and one store connection per shard, which
    /// successive replay consumers share.
    pub fn replay_links(&self) -> Vec<(SharedFeed, Arc<RemoteStore>)> {
        self.shards
            .iter()
            .map(|s| {
                let feed =
                    TcpSubscriber::connect(s.feed.local_addr(), &["feed/"], self.cfg.clone());
                let store = RemoteStore::connect(s.store_srv.local_addr(), self.cfg.clone());
                (SharedFeed(Arc::new(feed)), Arc::new(store))
            })
            .collect()
    }

    /// Stops every role and joins its threads.
    pub fn shutdown(self) {
        let Pipeline { shards, front, sender, consumers, .. } = self;
        drop(consumers);
        drop(sender);
        if let Some((srv, _)) = front {
            srv.shutdown();
        }
        for s in shards {
            s.pull.shutdown();
            s.agg.shutdown();
            s.feed.shutdown();
            s.store_srv.shutdown();
        }
    }
}
