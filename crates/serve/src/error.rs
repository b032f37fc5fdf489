//! Typed serving errors.

/// Why a request was refused or failed.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// The submission queue is at capacity; the request was shed at
    /// admission (the caller should back off or retry elsewhere).
    Overloaded {
        /// Queue depth observed at admission.
        depth: usize,
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The server is draining — late submissions are refused while
    /// in-flight requests complete — or a scheduler death closed
    /// admission.
    ShuttingDown,
    /// No layer with this name is registered.
    UnknownLayer(String),
    /// No network with this name exists in the zoo.
    UnknownModel(String),
    /// The request tensor does not match the registered layer's shape.
    Shape(String),
    /// Every engine in the layer's degradation chain failed.
    Engine(String),
    /// The serving machinery itself failed while holding the request —
    /// a batch panicked in an executor, the scheduler thread died, or
    /// the response channel was lost. The request was *terminated*,
    /// never stranded: crash containment guarantees a waiter always
    /// observes exactly one terminal result.
    Internal {
        /// Human-readable failure cause (the panic payload).
        cause: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { depth, capacity } => {
                write!(f, "overloaded: queue depth {depth} at capacity {capacity}")
            }
            ServeError::ShuttingDown => f.write_str("server is shutting down"),
            ServeError::UnknownLayer(name) => write!(f, "unknown layer {name:?}"),
            ServeError::UnknownModel(name) => write!(f, "unknown model {name:?}"),
            ServeError::Shape(msg) => write!(f, "shape error: {msg}"),
            ServeError::Engine(msg) => write!(f, "engine failure: {msg}"),
            ServeError::Internal { cause } => write!(f, "internal server failure: {cause}"),
        }
    }
}

impl std::error::Error for ServeError {}
