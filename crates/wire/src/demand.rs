//! Function-at-a-time wire compression.
//!
//! §2: arithmetic codes "must be expanded before interpretation, though
//! we have used them successfully by decompressing a function at a
//! time." This module provides that delivery mode for the wire format:
//! each function is an independently decompressible unit, so a client
//! can demand-load only the functions a run actually calls — the
//! transmission-side analogue of BRISC's working-set reduction.

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

use crate::format::{compress, decompress_budgeted, WireOptions};
use crate::WireError;
use codecomp_core::bytesio::{put_string, put_uvarint, Cursor};
use codecomp_core::{telemetry, Budget, DecodeError, DecodeLimits};
use codecomp_ir::eval::{EvalOutcome, Evaluator};
use codecomp_ir::op::Literal;
use codecomp_ir::tree::{Function, Global, Module, Tree};
use codecomp_ir::IrError;

const MAGIC: &[u8; 4] = b"CCWD";

/// A module compressed as independently decodable function units.
#[derive(Debug, Clone)]
pub struct DemandImage {
    /// Shared data (globals), compressed once.
    globals: Vec<Global>,
    /// `(name, wire image of a single-function module)`.
    units: Vec<(String, Vec<u8>)>,
    /// Name → position in `units`, built once at construction so
    /// per-request lookups are O(log n) instead of a linear scan.
    index: BTreeMap<String, usize>,
    options: WireOptions,
}

/// Builds the name→position map, rejecting duplicate unit names (two
/// units under one name would make demand loads ambiguous).
fn index_units(units: &[(String, Vec<u8>)]) -> Result<BTreeMap<String, usize>, WireError> {
    let mut index = BTreeMap::new();
    for (pos, (name, _)) in units.iter().enumerate() {
        if index.insert(name.clone(), pos).is_some() {
            return Err(WireError::Corrupt(format!("duplicate function {name}")));
        }
    }
    Ok(index)
}

impl DemandImage {
    /// Compresses each function of `module` separately.
    ///
    /// # Errors
    ///
    /// Propagates wire-compression errors; [`WireError::Corrupt`] if
    /// two functions share a name.
    pub fn build(module: &Module, options: WireOptions) -> Result<DemandImage, WireError> {
        let mut units = Vec::with_capacity(module.functions.len());
        for f in &module.functions {
            let single = Module {
                globals: Vec::new(),
                functions: vec![f.clone()],
            };
            let packed = compress(&single, options)?;
            units.push((f.name.clone(), packed.bytes));
        }
        let index = index_units(&units)?;
        Ok(DemandImage {
            globals: module.globals.clone(),
            units,
            index,
            options,
        })
    }

    /// Function names in definition order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.units.iter().map(|(n, _)| n.as_str())
    }

    /// Compressed size of one function's unit.
    pub fn unit_size(&self, name: &str) -> Option<usize> {
        self.index.get(name).map(|&i| self.units[i].1.len())
    }

    /// Total size of all units plus the globals.
    pub fn total_units(&self) -> usize {
        self.units.iter().map(|(_, b)| b.len()).sum()
    }

    /// Decompresses exactly one function — the demand-load primitive.
    ///
    /// # Errors
    ///
    /// [`WireError::Corrupt`] if the name is unknown or the unit is
    /// malformed.
    pub fn load_function(&self, name: &str) -> Result<Function, WireError> {
        self.load_function_budgeted(name, &Budget::default())
    }

    /// Budget-governed [`Self::load_function`].
    ///
    /// # Errors
    ///
    /// As [`Self::load_function`], plus [`WireError::Limit`] when the
    /// budget trips.
    pub fn load_function_budgeted(
        &self,
        name: &str,
        budget: &Budget,
    ) -> Result<Function, WireError> {
        let bytes = self
            .unit_bytes(name)
            .ok_or_else(|| WireError::Corrupt(format!("no function {name} in image")))?;
        let module = decompress_budgeted(bytes, budget)?;
        module
            .functions
            .into_iter()
            .next()
            .ok_or_else(|| WireError::Corrupt("unit holds no function".into()))
    }

    /// Raw compressed bytes of one function's unit.
    pub fn unit_bytes(&self, name: &str) -> Option<&[u8]> {
        self.index.get(name).map(|&i| self.units[i].1.as_slice())
    }

    /// Decompresses every unit back into a whole module.
    ///
    /// # Errors
    ///
    /// Propagates unit decode errors.
    pub fn load_all(&self) -> Result<Module, WireError> {
        self.load_all_budgeted(&Budget::default())
    }

    /// Budget-governed [`Self::load_all`].
    ///
    /// # Errors
    ///
    /// As [`Self::load_all`], plus [`WireError::Limit`] when the budget
    /// trips.
    pub fn load_all_budgeted(&self, budget: &Budget) -> Result<Module, WireError> {
        let mut module = Module {
            globals: self.globals.clone(),
            functions: Vec::new(),
        };
        for (name, _) in &self.units {
            module.functions.push(self.load_function_budgeted(name, budget)?);
        }
        Ok(module)
    }

    /// Classifies every unit as salvageable or poisoned under `limits`.
    ///
    /// Each unit is probed with a *fresh* budget so one oversized
    /// function cannot drain the meters for its siblings; this is the
    /// report a loader consults before deciding what to quarantine.
    pub fn salvage_scan(&self, limits: DecodeLimits) -> SalvageReport {
        let _stage = telemetry::stage!("wire.salvage_scan");
        let mut salvageable = Vec::new();
        let mut poisoned = Vec::new();
        for (name, _) in &self.units {
            match self.load_function_budgeted(name, &Budget::new(limits)) {
                Ok(_) => salvageable.push(name.clone()),
                Err(e) => {
                    let cause = DecodeError::from(e);
                    telemetry::event(
                        "demand.salvage_poisoned",
                        vec![
                            ("function", name.as_str().into()),
                            ("cause", cause.to_string().into()),
                        ],
                    );
                    poisoned.push((name.clone(), cause));
                }
            }
        }
        telemetry::event(
            "demand.salvage_scan",
            vec![
                ("salvageable", salvageable.len().into()),
                ("poisoned", poisoned.len().into()),
            ],
        );
        SalvageReport {
            salvageable,
            poisoned,
        }
    }

    /// Bytes a run needs to transfer-and-decompress when it calls only
    /// `used` functions (plus globals, which always ship).
    pub fn demand_bytes<'a>(&self, used: impl IntoIterator<Item = &'a str>) -> usize {
        used.into_iter().filter_map(|n| self.unit_size(n)).sum()
    }

    /// Serializes the image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(self.options.to_byte());
        put_uvarint(&mut out, self.globals.len() as u64);
        for g in &self.globals {
            put_string(&mut out, &g.name);
            put_uvarint(&mut out, u64::from(g.size));
            put_uvarint(&mut out, g.init.len() as u64);
            out.extend_from_slice(&g.init);
        }
        put_uvarint(&mut out, self.units.len() as u64);
        for (name, bytes) in &self.units {
            put_string(&mut out, name);
            put_uvarint(&mut out, bytes.len() as u64);
            out.extend_from_slice(bytes);
        }
        out
    }

    /// Deserializes an image.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if the bytes end before the declared
    /// structure does; [`WireError::Corrupt`] on malformed input,
    /// including two units sharing one name.
    pub fn from_bytes(bytes: &[u8]) -> Result<DemandImage, WireError> {
        let mut c = Cursor::new(bytes);
        if c.take(4)? != MAGIC {
            return Err(WireError::Corrupt("bad magic".into()));
        }
        // Shares the container decoder's strict parse, so demand images
        // reject reserved option bits the same way `decompress` does.
        let options = WireOptions::from_byte(c.u8()?)?;
        let nglobals = c.uvarint()? as usize;
        // Counts are attacker-controlled: cap the preallocation by what
        // the input could possibly hold so a corrupt varint cannot
        // demand an absurd allocation up front.
        let mut globals = Vec::with_capacity(nglobals.min(c.remaining()));
        for _ in 0..nglobals {
            let name = c.string()?;
            let size = c.uvarint()? as u32;
            let init_len = c.uvarint()? as usize;
            globals.push(Global {
                name,
                size,
                init: c.take(init_len)?.to_vec(),
            });
        }
        let nunits = c.uvarint()? as usize;
        let mut units = Vec::with_capacity(nunits.min(c.remaining()));
        for _ in 0..nunits {
            let name = c.string()?;
            let len = c.uvarint()? as usize;
            units.push((name, c.take(len)?.to_vec()));
        }
        if c.remaining() != 0 {
            return Err(WireError::Corrupt("trailing bytes".into()));
        }
        let index = index_units(&units)?;
        Ok(DemandImage {
            globals,
            units,
            index,
            options,
        })
    }
}

/// Salvageable-vs-poisoned classification of a [`DemandImage`]'s units.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SalvageReport {
    /// Units that decode cleanly under the probed limits.
    pub salvageable: Vec<String>,
    /// Units that fail, with the failure that poisoned each.
    pub poisoned: Vec<(String, DecodeError)>,
}

/// A failure surfaced by the demand-loading runtime.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DemandError {
    /// The function was quarantined by an earlier decode failure; calls
    /// into it trap here instead of corrupting the run.
    Quarantined {
        /// The quarantined function.
        name: String,
        /// Why its unit failed to decode.
        cause: DecodeError,
    },
    /// The image holds no unit with this name.
    UnknownFunction(String),
    /// A unit failed to decode (also recorded in the quarantine).
    Decode(WireError),
    /// The program itself faulted while running.
    Exec(String),
}

impl fmt::Display for DemandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DemandError::Quarantined { name, cause } => {
                write!(f, "function {name} is quarantined: {cause}")
            }
            DemandError::UnknownFunction(name) => write!(f, "no function {name} in image"),
            DemandError::Decode(e) => write!(f, "demand decode failed: {e}"),
            DemandError::Exec(m) => write!(f, "execution failed: {m}"),
        }
    }
}

impl Error for DemandError {}

/// Point-in-time state of a [`DemandLoader`].
#[derive(Debug, Clone, PartialEq)]
pub struct DemandReport {
    /// Functions currently resident, in image order.
    pub resident: Vec<String>,
    /// Functions quarantined with the failure that poisoned each.
    pub quarantined: Vec<(String, DecodeError)>,
    /// Functions not yet demanded.
    pub not_loaded: Vec<String>,
    /// Compressed bytes charged for the resident set.
    pub resident_bytes: u64,
}

/// A demand-paging runtime over a [`DemandImage`] that degrades
/// gracefully: a corrupt or over-budget unit is *quarantined* (recorded
/// with its [`DecodeError`]) instead of failing the module, later calls
/// into it trap with [`DemandError::Quarantined`], and
/// [`DemandLoader::retry_with`] re-demands a function that only failed
/// on limits once the caller raises the budget.
///
/// Residency is accounted in compressed unit bytes — the same metric as
/// [`DemandImage::demand_bytes`] — against the budget's
/// `max_resident_bytes`; [`DemandLoader::evict`] releases it.
#[derive(Debug)]
pub struct DemandLoader<'a> {
    image: &'a DemandImage,
    budget: Budget,
    resident: BTreeMap<String, (Function, u64)>,
    quarantine: BTreeMap<String, DecodeError>,
}

impl<'a> DemandLoader<'a> {
    /// A loader over `image` governed by a fresh budget with `limits`.
    pub fn new(image: &'a DemandImage, limits: DecodeLimits) -> Self {
        Self::with_budget(image, Budget::new(limits))
    }

    /// A loader sharing `budget` with an enclosing pipeline.
    pub fn with_budget(image: &'a DemandImage, budget: Budget) -> Self {
        DemandLoader {
            image,
            budget,
            resident: BTreeMap::new(),
            quarantine: BTreeMap::new(),
        }
    }

    /// The budget governing this loader.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Demand-loads `name`, decoding its unit if not already resident.
    ///
    /// A decode or residency failure quarantines the function and
    /// returns [`DemandError::Quarantined`]; the rest of the module
    /// stays usable.
    ///
    /// # Errors
    ///
    /// [`DemandError::UnknownFunction`] for names outside the image,
    /// [`DemandError::Quarantined`] for poisoned units.
    pub fn demand(&mut self, name: &str) -> Result<&Function, DemandError> {
        if let Some(cause) = self.quarantine.get(name) {
            return Err(DemandError::Quarantined {
                name: name.to_string(),
                cause: cause.clone(),
            });
        }
        if !self.resident.contains_key(name) {
            let unit_len = self
                .image
                .unit_size(name)
                .ok_or_else(|| DemandError::UnknownFunction(name.to_string()))?
                as u64;
            let loaded = self
                .image
                .load_function_budgeted(name, &self.budget)
                .map_err(DecodeError::from)
                .and_then(|f| {
                    self.budget.charge_resident(unit_len)?;
                    Ok(f)
                });
            match loaded {
                Ok(f) => {
                    telemetry::counter_add("wire.demand.loads", 1);
                    self.budget.publish_telemetry();
                    self.resident.insert(name.to_string(), (f, unit_len));
                }
                Err(cause) => {
                    telemetry::counter_add("wire.demand.quarantines", 1);
                    telemetry::event(
                        "demand.quarantine",
                        vec![
                            ("function", name.into()),
                            ("cause", cause.to_string().into()),
                        ],
                    );
                    self.quarantine.insert(name.to_string(), cause.clone());
                    return Err(DemandError::Quarantined {
                        name: name.to_string(),
                        cause,
                    });
                }
            }
        }
        Ok(&self.resident[name].0)
    }

    /// Evicts a resident function, releasing its residency charge.
    /// Returns whether it was resident.
    pub fn evict(&mut self, name: &str) -> bool {
        match self.resident.remove(name) {
            Some((_, bytes)) => {
                self.budget.release_resident(bytes);
                telemetry::counter_add("wire.demand.evictions", 1);
                self.budget.publish_telemetry();
                true
            }
            None => false,
        }
    }

    /// Clears `name`'s quarantine record, rebinds the loader's ceilings
    /// to `limits` (over the same meters), and re-demands it — the
    /// recovery path for a function that only failed on limits. A unit
    /// that failed structurally will simply quarantine again.
    ///
    /// # Errors
    ///
    /// As [`Self::demand`].
    pub fn retry_with(
        &mut self,
        name: &str,
        limits: DecodeLimits,
    ) -> Result<&Function, DemandError> {
        telemetry::event("demand.retry", vec![("function", name.into())]);
        self.quarantine.remove(name);
        self.budget = self.budget.with_limits(limits);
        self.demand(name)
    }

    /// The loader's current resident / quarantined / untouched split.
    pub fn report(&self) -> DemandReport {
        let resident: Vec<String> = self
            .image
            .names()
            .filter(|n| self.resident.contains_key(*n))
            .map(str::to_string)
            .collect();
        let quarantined: Vec<(String, DecodeError)> = self
            .image
            .names()
            .filter_map(|n| self.quarantine.get(n).map(|c| (n.to_string(), c.clone())))
            .collect();
        let not_loaded = self
            .image
            .names()
            .filter(|n| !self.resident.contains_key(*n) && !self.quarantine.contains_key(*n))
            .map(str::to_string)
            .collect();
        let resident_bytes = self.resident.values().map(|(_, b)| b).sum();
        DemandReport {
            resident,
            quarantined,
            not_loaded,
            resident_bytes,
        }
    }

    /// Assembles a module from everything currently resident (image
    /// order), for handing to an evaluator.
    pub fn resident_module(&self) -> Module {
        let mut module = Module {
            globals: self.image.globals.clone(),
            functions: Vec::new(),
        };
        for name in self.image.names() {
            if let Some((f, _)) = self.resident.get(name) {
                module.functions.push(f.clone());
            }
        }
        module
    }

    /// Demand-loads `entry` and everything statically reachable from
    /// it, then runs it; quarantined functions are skipped during the
    /// walk, and a call that actually reaches one traps with
    /// [`DemandError::Quarantined`] instead of a raw evaluator error.
    ///
    /// # Errors
    ///
    /// [`DemandError::Quarantined`] if `entry` itself is poisoned or
    /// execution reaches a poisoned function; [`DemandError::Exec`] for
    /// ordinary program faults.
    pub fn run(
        &mut self,
        entry: &str,
        args: &[i64],
        mem: u32,
        fuel: u64,
    ) -> Result<EvalOutcome, DemandError> {
        self.demand(entry)?;
        // Transitive preload over ADDRG symbols. Over-approximates the
        // call graph (a symbol may name a global or a never-taken
        // call), so failures here only quarantine — they don't abort.
        let mut worklist: Vec<String> = vec![entry.to_string()];
        let mut seen: BTreeSet<String> = worklist.iter().cloned().collect();
        while let Some(name) = worklist.pop() {
            let Some((f, _)) = self.resident.get(&name) else {
                continue;
            };
            let mut targets = BTreeSet::new();
            for tree in &f.body {
                collect_symbols(tree, &mut targets);
            }
            for t in targets {
                if seen.insert(t.clone()) && self.image.unit_size(&t).is_some() {
                    let _ = self.demand(&t);
                    worklist.push(t);
                }
            }
        }
        let module = self.resident_module();
        let eval = Evaluator::new(&module, mem, fuel)
            .map_err(|e| DemandError::Exec(e.to_string()))?;
        match eval.run(entry, args) {
            Ok(out) => Ok(out),
            Err(IrError::Eval(msg)) => {
                // The evaluator reports a missing function as an
                // undefined symbol; if we quarantined it, surface the
                // quarantine instead of the raw evaluator error.
                for (name, cause) in &self.quarantine {
                    if msg == format!("undefined symbol {name}")
                        || msg == format!("undefined function {name}")
                    {
                        return Err(DemandError::Quarantined {
                            name: name.clone(),
                            cause: cause.clone(),
                        });
                    }
                }
                Err(DemandError::Exec(msg))
            }
            Err(e) => Err(DemandError::Exec(e.to_string())),
        }
    }
}

/// Collects every `ADDRG` symbol in `tree` — the static superset of
/// call targets.
fn collect_symbols(tree: &Tree, out: &mut BTreeSet<String>) {
    if let Some(Literal::Symbol(s)) = tree.literal() {
        out.insert(s.clone());
    }
    for k in tree.kids() {
        collect_symbols(k, out);
    }
}


#[cfg(test)]
mod tests {
    use super::*;
    use codecomp_front::compile;

    fn sample() -> Module {
        compile(
            "int g = 3;
             int used() { return g + 9; }
             int helper(int x) { return x * 2; }
             int unused(int x) { int i; int s = 0; for (i = 0; i < x; i++) s += helper(i); return s; }
             int main() { return used(); }",
        )
        .unwrap()
    }

    #[test]
    fn single_functions_load_independently() {
        let m = sample();
        let img = DemandImage::build(&m, WireOptions::default()).unwrap();
        let f = img.load_function("used").unwrap();
        assert_eq!(&f, m.function("used").unwrap());
        assert!(img.load_function("nope").is_err());
    }

    #[test]
    fn load_all_reconstructs_the_module() {
        let m = sample();
        let img = DemandImage::build(&m, WireOptions::default()).unwrap();
        assert_eq!(img.load_all().unwrap(), m);
    }

    #[test]
    fn duplicate_unit_names_are_rejected() {
        let m = sample();
        // Construction from a module with two same-named functions.
        let mut dup = m.clone();
        let mut clash = dup.functions[1].clone();
        clash.name = dup.functions[0].name.clone();
        dup.functions.push(clash);
        let err = DemandImage::build(&dup, WireOptions::default()).unwrap_err();
        assert!(
            matches!(err, WireError::Corrupt(ref w) if w.contains("duplicate")),
            "build must reject duplicates, got {err:?}"
        );

        // Deserialization of an image whose unit table repeats a name.
        let mut img = DemandImage::build(&m, WireOptions::default()).unwrap();
        let repeat = img.units[0].clone();
        img.units.push(repeat);
        let bytes = img.to_bytes();
        let err = DemandImage::from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, WireError::Corrupt(ref w) if w.contains("duplicate")),
            "from_bytes must reject duplicates, got {err:?}"
        );
    }

    #[test]
    fn indexed_lookup_matches_unit_order() {
        let m = sample();
        let img = DemandImage::build(&m, WireOptions::default()).unwrap();
        for (name, bytes) in &img.units {
            assert_eq!(img.unit_bytes(name), Some(bytes.as_slice()));
            assert_eq!(img.unit_size(name), Some(bytes.len()));
        }
        assert_eq!(img.unit_bytes("nope"), None);
        assert_eq!(img.unit_size("nope"), None);
    }

    #[test]
    fn serialization_roundtrip() {
        let m = sample();
        let img = DemandImage::build(&m, WireOptions::default()).unwrap();
        let bytes = img.to_bytes();
        let back = DemandImage::from_bytes(&bytes).unwrap();
        assert_eq!(back.load_all().unwrap(), m);
        assert!(DemandImage::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn demand_loading_transfers_fewer_bytes() {
        let m = sample();
        let img = DemandImage::build(&m, WireOptions::default()).unwrap();
        let partial = img.demand_bytes(["main", "used"]);
        let all = img.total_units();
        assert!(partial < all, "demand {partial} should be below full {all}");
        assert_eq!(img.names().count(), 4);
    }

    #[test]
    fn corrupted_unit_is_quarantined_but_module_survives() {
        let m = sample();
        let mut img = DemandImage::build(&m, WireOptions::default()).unwrap();
        let idx = img.units.iter().position(|(n, _)| n == "unused").unwrap();
        let len = img.units[idx].1.len();
        img.units[idx].1.truncate(len / 2);

        let scan = img.salvage_scan(DecodeLimits::default());
        assert_eq!(scan.poisoned.len(), 1);
        assert_eq!(scan.poisoned[0].0, "unused");
        assert_eq!(scan.salvageable.len(), 3);

        let mut loader = DemandLoader::new(&img, DecodeLimits::default());
        let out = loader.run("main", &[], 1 << 20, 1 << 30).unwrap();
        assert_eq!(out.value, 12);
        let err = loader.demand("unused").unwrap_err();
        assert!(matches!(err, DemandError::Quarantined { ref name, .. } if name == "unused"));
        let report = loader.report();
        assert_eq!(report.quarantined.len(), 1);
        assert!(report.resident.contains(&"main".to_string()));
        assert!(report.resident.contains(&"used".to_string()));
    }

    #[test]
    fn calling_into_a_quarantined_function_traps_cleanly() {
        let m = sample();
        let mut img = DemandImage::build(&m, WireOptions::default()).unwrap();
        let idx = img.units.iter().position(|(n, _)| n == "used").unwrap();
        let len = img.units[idx].1.len();
        img.units[idx].1.truncate(len / 2);
        let mut loader = DemandLoader::new(&img, DecodeLimits::default());
        let err = loader.run("main", &[], 1 << 20, 1 << 30).unwrap_err();
        assert!(matches!(err, DemandError::Quarantined { ref name, .. } if name == "used"));
    }

    #[test]
    fn limit_failure_is_recoverable_with_a_larger_budget() {
        let m = sample();
        let img = DemandImage::build(&m, WireOptions::default()).unwrap();
        let tiny = DecodeLimits {
            decode_fuel: 0,
            ..DecodeLimits::default()
        };
        let mut loader = DemandLoader::new(&img, tiny);
        let err = loader.demand("used").unwrap_err();
        assert!(matches!(
            err,
            DemandError::Quarantined {
                cause: DecodeError::LimitExceeded { .. },
                ..
            }
        ));
        let f = loader.retry_with("used", DecodeLimits::default()).unwrap();
        assert_eq!(f, m.function("used").unwrap());
    }

    #[test]
    fn eviction_releases_residency() {
        let m = sample();
        let img = DemandImage::build(&m, WireOptions::default()).unwrap();
        let unit = img.unit_size("main").unwrap() as u64;
        let mut loader = DemandLoader::new(&img, DecodeLimits::default());
        loader.demand("main").unwrap();
        assert_eq!(loader.report().resident_bytes, unit);
        assert!(loader.evict("main"));
        assert!(!loader.evict("main"));
        assert_eq!(loader.report().resident_bytes, 0);
        loader.demand("main").unwrap();
    }

    #[test]
    fn resident_ceiling_enforced_and_recoverable() {
        let m = sample();
        let img = DemandImage::build(&m, WireOptions::default()).unwrap();
        let main_len = img.unit_size("main").unwrap() as u64;
        let used_len = img.unit_size("used").unwrap() as u64;
        let limits = DecodeLimits {
            max_resident_bytes: main_len.max(used_len),
            ..DecodeLimits::default()
        };
        let mut loader = DemandLoader::new(&img, limits);
        loader.demand("main").unwrap();
        let err = loader.demand("used").unwrap_err();
        assert!(matches!(
            err,
            DemandError::Quarantined {
                cause: DecodeError::LimitExceeded { .. },
                ..
            }
        ));
        assert!(loader.evict("main"));
        loader.retry_with("used", limits).unwrap();
    }

    #[test]
    fn arithmetic_coder_variant_works_per_function() {
        // The paper's remark: arithmetic codes, expanded a function at a time.
        let m = sample();
        let options = WireOptions {
            coder: crate::format::Coder::Arithmetic,
            ..WireOptions::default()
        };
        let img = DemandImage::build(&m, options).unwrap();
        assert_eq!(img.load_all().unwrap(), m);
        let bytes = img.to_bytes();
        assert_eq!(
            DemandImage::from_bytes(&bytes).unwrap().load_all().unwrap(),
            m
        );
    }
}
