//! Recipe database (§3.1.2: "Since these recipes remain the same for
//! every specific F(m, r), we store them in a database to facilitate
//! their reuse and avoid generating them again").
//!
//! The database is an in-process, thread-safe cache keyed by the
//! specification and pipeline options. Code generation, auto-tuning
//! sweeps and the benchmark harness all hit the same instance, so each
//! recipe is derived exactly once per process.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;
use wino_symbolic::RecipeOptions;

use crate::error::TransformError;
use crate::recipes::TransformRecipes;
use crate::spec::WinogradSpec;

type Key = (WinogradSpec, bool, bool, bool, bool);

fn key(spec: WinogradSpec, opts: RecipeOptions, naive: bool) -> Key {
    (spec, opts.cse, opts.factorize, opts.fma, naive)
}

/// A thread-safe cache of generated transformation recipes.
#[derive(Default)]
pub struct RecipeDb {
    entries: RwLock<HashMap<Key, Arc<TransformRecipes>>>,
}

impl RecipeDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the recipes for `(spec, opts)`, generating and caching
    /// them on first use.
    ///
    /// # Errors
    /// Propagates recipe-generation failures (unsupported α, bad
    /// spec). Failures are not cached.
    pub fn get(
        &self,
        spec: WinogradSpec,
        opts: RecipeOptions,
    ) -> Result<Arc<TransformRecipes>, TransformError> {
        self.get_inner(spec, opts, false)
    }

    /// Returns the *naive dense* recipes for `spec` (the Figure-5/6
    /// baseline), cached separately from the optimized pipelines.
    ///
    /// # Errors
    /// Propagates recipe-generation failures.
    pub fn get_naive(&self, spec: WinogradSpec) -> Result<Arc<TransformRecipes>, TransformError> {
        self.get_inner(spec, RecipeOptions::minimal(), true)
    }

    fn get_inner(
        &self,
        spec: WinogradSpec,
        opts: RecipeOptions,
        naive: bool,
    ) -> Result<Arc<TransformRecipes>, TransformError> {
        let k = key(spec, opts, naive);
        if let Some(hit) = self.entries.read().get(&k) {
            return Ok(Arc::clone(hit));
        }
        let generated = Arc::new(if naive {
            TransformRecipes::generate_naive(spec)?
        } else {
            TransformRecipes::generate(spec, opts)?
        });
        let mut w = self.entries.write();
        // A racing generator may have inserted meanwhile; keep the
        // first entry so callers share one allocation.
        let entry = w.entry(k).or_insert_with(|| Arc::clone(&generated));
        Ok(Arc::clone(entry))
    }

    /// Number of cached configurations.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Returns `true` if nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Drops all cached recipes.
    pub fn clear(&self) {
        self.entries.write().clear();
    }
}

/// The process-wide shared database instance.
pub fn recipe_db() -> &'static RecipeDb {
    static DB: OnceLock<RecipeDb> = OnceLock::new();
    DB.get_or_init(RecipeDb::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caching_returns_shared_instances() {
        let db = RecipeDb::new();
        let spec = WinogradSpec::new(2, 3).unwrap();
        let a = db.get(spec, RecipeOptions::optimized()).unwrap();
        let b = db.get(spec, RecipeOptions::optimized()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn options_are_part_of_the_key() {
        let db = RecipeDb::new();
        let spec = WinogradSpec::new(2, 3).unwrap();
        let opt = db.get(spec, RecipeOptions::optimized()).unwrap();
        let min = db.get(spec, RecipeOptions::minimal()).unwrap();
        let naive = db.get_naive(spec).unwrap();
        assert!(!Arc::ptr_eq(&opt, &min));
        assert_eq!(db.len(), 3);
        assert!(opt.filter.op_count().total() <= min.filter.op_count().total());
        assert!(min.filter.op_count().total() < naive.filter.op_count().total());
    }

    #[test]
    fn failures_are_not_cached() {
        let db = RecipeDb::new();
        // α = 18 has no built-in point set.
        let spec = WinogradSpec::new(12, 7).unwrap();
        assert!(db.get(spec, RecipeOptions::optimized()).is_err());
        assert!(db.is_empty());
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let db = Arc::new(RecipeDb::new());
        let spec = WinogradSpec::new(4, 3).unwrap();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || db.get(spec, RecipeOptions::optimized()).unwrap().spec)
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), spec);
        }
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn global_instance_is_reused() {
        let spec = WinogradSpec::new(3, 3).unwrap();
        let a = recipe_db().get(spec, RecipeOptions::optimized()).unwrap();
        let b = recipe_db().get(spec, RecipeOptions::optimized()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
