//! The resident-graph catalog: load once, attach many.
//!
//! A registered graph is partitioned, laid out and written to its three
//! on-disk stores exactly once, by the engine's own build path
//! ([`SharedStores::build`], per worker slot, on in-memory disks). Jobs
//! run on that layout and attach cheap stats-rebinding views instead of
//! rebuilding — the I/O of registration is
//! paid once, while every byte a job later *reads* through a view is
//! charged to that job's own per-worker `IoStats`.
//!
//! Graphs are reference-counted: admission pins, completion unpins, and
//! [`Catalog::evict`] refuses while any job still holds a pin.

use hybridgraph_core::SharedStores;
use hybridgraph_graph::Graph;
use hybridgraph_storage::frame::AsU32;
use hybridgraph_storage::{record, CodecChoice};
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::sync::Arc;

/// How a graph is laid out at registration. Jobs over the graph inherit
/// these settings (worker count, codec, Vblock granularity) — the stores
/// are sliced for exactly this partition and layout.
#[derive(Copy, Clone, Debug)]
pub struct GraphSpec {
    /// Worker (computational-node) count the stores are built for.
    pub workers: usize,
    /// On-disk codec of the stores.
    pub codec: CodecChoice,
    /// Vblocks per worker (the b-pull layout's granularity).
    pub vblocks_per_worker: usize,
}

impl GraphSpec {
    /// A spec with `workers` slots, no codec, one Vblock per worker.
    pub fn new(workers: usize) -> GraphSpec {
        GraphSpec {
            workers,
            codec: CodecChoice::None,
            vblocks_per_worker: 1,
        }
    }

    /// Sets the on-disk codec.
    pub fn with_codec(mut self, codec: CodecChoice) -> GraphSpec {
        self.codec = codec;
        self
    }

    /// Sets the Vblock granularity.
    pub fn with_vblocks(mut self, per_worker: usize) -> GraphSpec {
        self.vblocks_per_worker = per_worker.max(1);
        self
    }
}

record! { GraphSpec { workers via AsU32, codec, vblocks_per_worker via AsU32 } }

/// Why a catalog operation was refused.
#[derive(Debug)]
pub enum CatalogError {
    /// `register` with a name that is already taken.
    NameTaken(String),
    /// The named graph is not registered.
    Unknown(String),
    /// `evict` while jobs still hold pins.
    Pinned {
        /// The graph name.
        name: String,
        /// Outstanding pins.
        pins: usize,
    },
    /// The spec asks for more worker slots than the service's shared
    /// cache was sharded for.
    TooManyWorkers {
        /// Requested worker count.
        workers: usize,
        /// Cache shard count.
        slots: usize,
    },
    /// Building the stores failed.
    Io(String),
    /// The spec asks for no worker slots or no Vblocks.
    EmptyLayout {
        /// Requested worker count.
        workers: usize,
        /// Requested Vblocks per worker.
        vblocks_per_worker: usize,
    },
    /// The graph has no vertices.
    EmptyGraph,
}

impl CatalogError {
    /// Stable numeric code for wire protocols: clients match on the code
    /// instead of parsing the display string. Codes are append-only —
    /// never renumber.
    ///
    /// | code | variant          |
    /// |------|------------------|
    /// | 1    | `NameTaken`      |
    /// | 2    | `Unknown`        |
    /// | 3    | `Pinned`         |
    /// | 4    | `TooManyWorkers` |
    /// | 5    | `Io`             |
    /// | 6    | `EmptyLayout`    |
    /// | 7    | `EmptyGraph`     |
    pub fn code(&self) -> u16 {
        match self {
            CatalogError::NameTaken(_) => 1,
            CatalogError::Unknown(_) => 2,
            CatalogError::Pinned { .. } => 3,
            CatalogError::TooManyWorkers { .. } => 4,
            CatalogError::Io(_) => 5,
            CatalogError::EmptyLayout { .. } => 6,
            CatalogError::EmptyGraph => 7,
        }
    }
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::NameTaken(n) => write!(f, "graph '{n}' is already registered"),
            CatalogError::Unknown(n) => write!(f, "no graph named '{n}' is registered"),
            CatalogError::Pinned { name, pins } => {
                write!(f, "graph '{name}' is pinned by {pins} job(s)")
            }
            CatalogError::TooManyWorkers { workers, slots } => write!(
                f,
                "spec asks for {workers} workers but the shared cache has {slots} shard slots"
            ),
            CatalogError::Io(e) => write!(f, "building graph stores failed: {e}"),
            CatalogError::EmptyLayout {
                workers,
                vblocks_per_worker,
            } => write!(
                f,
                "spec asks for {workers} workers with {vblocks_per_worker} Vblocks each; \
                 both must be at least 1"
            ),
            CatalogError::EmptyGraph => write!(f, "the graph has no vertices"),
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<io::Error> for CatalogError {
    fn from(e: io::Error) -> Self {
        CatalogError::Io(e.to_string())
    }
}

/// One registered graph: the input graph (workers still need it for
/// initial values, degrees and mirror discovery), its spec, the prebuilt
/// per-slot stores, and the pin count.
pub struct RegisteredGraph {
    /// Catalog-wide id (the shared cache's key namespace).
    pub id: u32,
    /// The input graph.
    pub graph: Arc<Graph>,
    /// Layout settings jobs inherit.
    pub spec: GraphSpec,
    /// Per-worker-slot store views.
    pub stores: SharedStores,
    pins: usize,
}

impl RegisteredGraph {
    /// Jobs currently attached.
    pub fn pins(&self) -> usize {
        self.pins
    }
}

/// Name → registered graph, with monotonically increasing ids.
pub struct Catalog {
    graphs: HashMap<String, RegisteredGraph>,
    next_id: u32,
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::new()
    }
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog {
            graphs: HashMap::new(),
            next_id: 0,
        }
    }

    /// Registers `graph` under `name`, building every store kind for every
    /// worker slot ([`SharedStores::build`]). Returns the graph id.
    pub fn register(
        &mut self,
        name: &str,
        graph: Arc<Graph>,
        spec: GraphSpec,
    ) -> Result<u32, CatalogError> {
        self.register_with_id(name, graph, spec, self.next_id)
    }

    /// Re-registers a graph under the id it held before a restart
    /// (service-log replay). Extent keys in the shared cache embed the
    /// graph id, so a restored cache snapshot only matches if ids
    /// survive recovery verbatim. `next_id` advances past `id` so later
    /// registrations never collide.
    pub fn register_with_id(
        &mut self,
        name: &str,
        graph: Arc<Graph>,
        spec: GraphSpec,
        id: u32,
    ) -> Result<u32, CatalogError> {
        if spec.workers == 0 || spec.vblocks_per_worker == 0 {
            return Err(CatalogError::EmptyLayout {
                workers: spec.workers,
                vblocks_per_worker: spec.vblocks_per_worker,
            });
        }
        if graph.num_vertices() == 0 {
            return Err(CatalogError::EmptyGraph);
        }
        if self.graphs.contains_key(name) {
            return Err(CatalogError::NameTaken(name.to_string()));
        }
        let stores = SharedStores::build(
            id,
            &graph,
            spec.workers,
            spec.vblocks_per_worker,
            spec.codec,
        )?;
        self.next_id = self.next_id.max(id.saturating_add(1));
        self.graphs.insert(
            name.to_string(),
            RegisteredGraph {
                id,
                graph,
                spec,
                stores,
                pins: 0,
            },
        );
        Ok(id)
    }

    /// Looks up a registered graph.
    pub fn get(&self, name: &str) -> Option<&RegisteredGraph> {
        self.graphs.get(name)
    }

    /// Pins `name` for a job being admitted.
    pub fn pin(&mut self, name: &str) -> Result<(), CatalogError> {
        match self.graphs.get_mut(name) {
            Some(g) => {
                g.pins += 1;
                Ok(())
            }
            None => Err(CatalogError::Unknown(name.to_string())),
        }
    }

    /// Releases one pin of `name`.
    pub fn unpin(&mut self, name: &str) {
        if let Some(g) = self.graphs.get_mut(name) {
            debug_assert!(g.pins > 0, "unpin without pin");
            g.pins = g.pins.saturating_sub(1);
        }
    }

    /// Evicts `name`, failing while pinned. Returns the graph id so the
    /// caller can purge the shared cache's entries for it.
    pub fn evict(&mut self, name: &str) -> Result<u32, CatalogError> {
        let g = self
            .graphs
            .get(name)
            .ok_or_else(|| CatalogError::Unknown(name.to_string()))?;
        if g.pins > 0 {
            return Err(CatalogError::Pinned {
                name: name.to_string(),
                pins: g.pins,
            });
        }
        Ok(self.graphs.remove(name).expect("checked above").id)
    }

    /// Number of registered graphs.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// True if no graph is registered.
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridgraph_graph::gen;

    #[test]
    fn register_pin_evict_lifecycle() {
        let mut c = Catalog::new();
        let g = Arc::new(gen::uniform(40, 200, 1));
        let id = c.register("g", Arc::clone(&g), GraphSpec::new(2)).unwrap();
        assert_eq!(id, 0);
        assert!(matches!(
            c.register("g", g, GraphSpec::new(2)),
            Err(CatalogError::NameTaken(_))
        ));
        c.pin("g").unwrap();
        assert!(matches!(
            c.evict("g"),
            Err(CatalogError::Pinned { pins: 1, .. })
        ));
        c.unpin("g");
        assert_eq!(c.evict("g").unwrap(), 0);
        assert!(matches!(c.evict("g"), Err(CatalogError::Unknown(_))));
        assert!(c.is_empty());
    }

    #[test]
    fn stores_cover_every_slot() {
        let mut c = Catalog::new();
        let g = Arc::new(gen::uniform(30, 150, 2));
        c.register("g", g, GraphSpec::new(3).with_vblocks(2))
            .unwrap();
        let reg = c.get("g").unwrap();
        assert_eq!(reg.stores.workers(), 3);
        assert_eq!(reg.stores.layout.num_blocks(), 6);
        assert_eq!(reg.pins(), 0);
    }
}
