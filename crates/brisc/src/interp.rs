//! Direct interpretation of compressed BRISC code.
//!
//! "Some applications, such as … working set reduction through direct
//! interpretation of compressed code, require a randomly addressable,
//! compact program representation" (§4). [`BriscMachine`] executes the
//! image *in place*: each step decodes the dictionary item at the
//! current byte offset (in its Markov context) and executes its
//! expansion; no decompressed copy of the program is ever built. What
//! one step leaves for the next is one buffer per dictionary entry,
//! holding the operands of that entry's last item, and every field
//! those operands fill is rewritten before the buffer is read again.
//! The per-item decode work is the interpretation overhead the paper's
//! "~12×" figure measures, and the byte-range touch map feeds the
//! working-set experiment.
//!
//! What one step does, and nothing more:
//!
//! 1. charge one unit of fuel, re-find the current function only if pc
//!    has left it (binary search over function starts), and trap if
//!    that function is quarantined;
//! 2. look up the opcode byte (or escape) in the context's successor
//!    list — an index into the flat [`DecodeTables`] built once per
//!    machine;
//! 3. in the entry's own buffer — a copy of its template, its
//!    instructions with every burned field already set, made the first
//!    time the entry is decoded — write each wildcard's operand into its
//!    field, reading it from a bit offset planned when the tables were
//!    built, with calls resolved to a function or host index;
//! 4. mark the item's bytes in the touch map (a bitset);
//! 5. hand each expanded instruction to the VM's shared execution core
//!    ([`codecomp_vm::interp::Core::step`], the same code the VM
//!    interpreter runs), map the [`Flow`] it returns into this image's
//!    byte offsets, and pick the next context.
//!
//! The tables, templates included, and the per-entry buffers hold only
//! what the transmitted dictionary, Markov tables and function names
//! determine, plus each entry's last operands; their size follows the
//! dictionary, not the code, so they are not a decoded copy of code.

use crate::image::{BriscImage, DecodeTables, ItemBuf};
use crate::markov::BLOCK_START;
use crate::BriscError;
use codecomp_vm::interp::{Core, Flow, Frame};
use codecomp_vm::isa::Inst;

/// The result of a BRISC run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BriscOutcome {
    /// The entry function's return value (`n0`).
    pub value: i64,
    /// Host-function output bytes.
    pub output: Vec<u8>,
    /// Instructions executed (after expansion).
    pub instructions: u64,
    /// Dictionary items decoded (each is one in-place decode operation).
    pub items_decoded: u64,
    /// Calls performed.
    pub calls: u64,
}

/// An interpreter over a compressed image: a driver of the VM's
/// execution core that charges one unit of fuel per item.
#[derive(Debug)]
pub struct BriscMachine<'a> {
    image: &'a BriscImage,
    tables: DecodeTables,
    core: Core,
    fuel: u64,
    items_decoded: u64,
    /// Per-function quarantine records from the governed load scan.
    quarantine: Vec<Option<codecomp_core::DecodeError>>,
    /// Touch map for working-set measurement: bit `i % 64` of word
    /// `i / 64` is set once code byte `i` has been decoded.
    touched: Vec<u64>,
    /// The decode buffer every run and validation scan reuses, so each
    /// entry's instructions are copied from its template once per
    /// machine.
    item: ItemBuf,
}

impl<'a> BriscMachine<'a> {
    /// Prepares the execution core (memory and globals, as the VM
    /// machine does) and builds the image's [`DecodeTables`].
    ///
    /// # Errors
    ///
    /// [`BriscError::Exec`] if globals do not fit;
    /// [`BriscError::Corrupt`] if the functions overlap or are out of
    /// code order.
    pub fn new(image: &'a BriscImage, mem_size: u32, fuel: u64) -> Result<Self, BriscError> {
        let mut prev_end = 0u64;
        for f in &image.functions {
            if u64::from(f.start) < prev_end {
                return Err(BriscError::Corrupt(format!(
                    "function {} overlaps its predecessor or is out of code order",
                    f.name
                )));
            }
            prev_end = u64::from(f.start) + u64::from(f.len);
        }
        Ok(Self {
            core: Core::new(&image.globals, mem_size, image.functions.len())?,
            touched: vec![0; image.code.len().div_ceil(64)],
            quarantine: vec![None; image.functions.len()],
            tables: DecodeTables::new(image),
            image,
            fuel,
            items_decoded: 0,
            item: ItemBuf::default(),
        })
    }

    /// [`Self::new`] plus a load-time validation scan of every function
    /// under `limits` (each probed with its own fresh meter, so one
    /// oversized function cannot drain its siblings'). Functions that
    /// fail are *quarantined* instead of failing the whole image:
    /// execution that reaches one traps with
    /// [`BriscError::Quarantined`], and everything else runs normally.
    ///
    /// # Errors
    ///
    /// As [`Self::new`].
    pub fn new_governed(
        image: &'a BriscImage,
        mem_size: u32,
        fuel: u64,
        limits: codecomp_core::DecodeLimits,
    ) -> Result<Self, BriscError> {
        let mut m = Self::new(image, mem_size, fuel)?;
        for i in 0..image.functions.len() {
            let budget = codecomp_core::Budget::new(limits);
            if let Err(e) = image.validate_function(i, &m.tables, &budget, &mut m.item) {
                let cause = codecomp_core::DecodeError::from(e);
                if codecomp_core::telemetry::enabled() {
                    codecomp_core::telemetry::counter_add("brisc.interp.quarantines", 1);
                    codecomp_core::telemetry::event(
                        "brisc.quarantine",
                        vec![
                            ("function", image.functions[i].name.as_str().into()),
                            ("cause", cause.to_string().into()),
                        ],
                    );
                }
                m.quarantine[i] = Some(cause);
            }
        }
        Ok(m)
    }

    /// Quarantined functions with the failure that poisoned each.
    pub fn quarantined_functions(&self) -> Vec<(String, codecomp_core::DecodeError)> {
        self.quarantine
            .iter()
            .enumerate()
            .filter_map(|(i, q)| {
                q.as_ref()
                    .map(|c| (self.image.functions[i].name.clone(), c.clone()))
            })
            .collect()
    }

    /// Re-validates one quarantined function under `limits` — the
    /// recovery path for a function that only failed on limits. On
    /// success its quarantine record is cleared; a function that fails
    /// again stays quarantined with the fresh cause.
    ///
    /// # Errors
    ///
    /// [`BriscError::Exec`] for unknown names; the validation failure
    /// itself when the function still does not decode.
    pub fn revalidate(
        &mut self,
        name: &str,
        limits: codecomp_core::DecodeLimits,
    ) -> Result<(), BriscError> {
        let idx = self
            .image
            .function_index(name)
            .ok_or_else(|| BriscError::Exec(format!("undefined function {name}")))?;
        let budget = codecomp_core::Budget::new(limits);
        match self
            .image
            .validate_function(idx, &self.tables, &budget, &mut self.item)
        {
            Ok(()) => {
                self.quarantine[idx] = None;
                codecomp_core::telemetry::event(
                    "brisc.revalidate",
                    vec![("function", name.into()), ("recovered", true.into())],
                );
                Ok(())
            }
            Err(e) => {
                self.quarantine[idx] = Some(codecomp_core::DecodeError::from(e.clone()));
                Err(e)
            }
        }
    }

    /// Runs `entry` with the given arguments.
    ///
    /// # Errors
    ///
    /// [`BriscError::Exec`] on faults or fuel exhaustion;
    /// [`BriscError::Corrupt`] if decoding fails mid-run.
    pub fn run(&mut self, entry: &str, args: &[i64]) -> Result<BriscOutcome, BriscError> {
        let _stage = codecomp_core::telemetry::stage!("brisc.run");
        let (fuel_before, instrs_before) = (self.fuel, self.core.instructions());
        let mut item = std::mem::take(&mut self.item);
        let result = self.run_inner(entry, args, &mut item);
        self.item = item;
        if codecomp_core::telemetry::enabled() {
            use codecomp_core::telemetry as t;
            t::counter_add(
                "brisc.interp.dispatches",
                self.core.instructions() - instrs_before,
            );
            t::counter_add("brisc.interp.fuel_consumed", fuel_before - self.fuel);
            if let Err(BriscError::Quarantined { name, cause }) = &result {
                t::event(
                    "brisc.quarantine_trap",
                    vec![
                        ("function", name.as_str().into()),
                        ("cause", cause.to_string().into()),
                    ],
                );
            }
        }
        result
    }

    fn run_inner(
        &mut self,
        entry: &str,
        args: &[i64],
        item: &mut ItemBuf,
    ) -> Result<BriscOutcome, BriscError> {
        let entry_idx = self
            .image
            .function_index(entry)
            .ok_or_else(|| BriscError::Exec(format!("undefined entry function {entry}")))?;
        self.core.start(args)?;

        let image = self.image;
        let mut pc = image.functions[entry_idx].start as usize;
        let mut ctx = BLOCK_START;
        // The function containing pc, as [start, end), its frame and its
        // extra leaders; empty until the first step resolves them.
        let (mut func_start, mut func_end) = (0, 0);
        let mut frame = Frame {
            size: 0,
            saved_regs: &[],
        };
        let mut extra_leaders: &[u32] = &[];
        loop {
            if self.fuel == 0 {
                return Err(BriscError::Exec("fuel exhausted".into()));
            }
            self.fuel -= 1;
            if !(func_start..func_end).contains(&pc) {
                let Some(f) = image.function_at(pc) else {
                    return Err(BriscError::Exec(format!("pc {pc} outside all functions")));
                };
                let fm = &image.functions[f];
                func_start = fm.start as usize;
                func_end = func_start + fm.len as usize;
                frame = Frame {
                    size: fm.frame_size,
                    saved_regs: &fm.saved_regs,
                };
                extra_leaders = &fm.extra_leaders;
                // Quarantine does not change during a run, so a function
                // is checked when pc enters it.
                if let Some(cause) = &self.quarantine[f] {
                    return Err(BriscError::Quarantined {
                        name: fm.name.clone(),
                        cause: cause.clone(),
                    });
                }
            }
            image.decode_into(pc, ctx, &self.tables, item)?;
            self.items_decoded += 1;
            let next = pc + item.size;
            self.touch(pc, next);

            let mut flow = Flow::Fall;
            let insts = item.insts();
            for (inst, &callee) in insts.iter().zip(item.callees()) {
                flow = self.core.step(inst, callee, frame, next)?;
                if flow != Flow::Fall {
                    break;
                }
            }
            (pc, ctx) = match flow {
                Flow::Fall => {
                    let next_local = (next - func_start) as u32;
                    let leader = insts.last().is_some_and(Inst::ends_block)
                        || extra_leaders.binary_search(&next_local).is_ok();
                    (next, if leader { BLOCK_START } else { item.entry })
                }
                Flow::Branch(target) => (func_start + target as usize, BLOCK_START),
                Flow::Enter(f) => (image.functions[f].start as usize, BLOCK_START),
                Flow::Return(to) => (to, BLOCK_START),
                Flow::Done => {
                    let out = self.core.finish();
                    return Ok(BriscOutcome {
                        value: out.value,
                        output: out.output,
                        instructions: out.instructions,
                        items_decoded: self.items_decoded,
                        calls: out.calls,
                    });
                }
            };
        }
    }

    /// Marks code bytes `[from, to)` touched.
    #[inline]
    fn touch(&mut self, from: usize, to: usize) {
        if from >= to {
            return;
        }
        let (first, last) = (from / 64, (to - 1) / 64);
        let head = !0u64 << (from % 64);
        let tail = !0u64 >> (63 - (to - 1) % 64);
        if first == last {
            self.touched[first] |= head & tail;
        } else {
            self.touched[first] |= head;
            self.touched[first + 1..last].fill(!0);
            self.touched[last] |= tail;
        }
    }

    /// Whether code byte `i` has been touched.
    fn is_touched(&self, i: usize) -> bool {
        self.touched[i / 64] >> (i % 64) & 1 == 1
    }

    /// Bytes of compressed code touched so far.
    pub fn touched_code_bytes(&self) -> usize {
        self.touched.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The touched byte offsets as `(offset, len)` runs, for paging
    /// simulation.
    pub fn touched_runs(&self) -> Vec<(u32, u32)> {
        let len = self.image.code.len();
        let mut runs = Vec::new();
        let mut start = None;
        for i in 0..len {
            match (self.is_touched(i), start) {
                (true, None) => start = Some(i),
                (false, Some(s)) => {
                    runs.push((s as u32, (i - s) as u32));
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = start {
            runs.push((s as u32, (len - s) as u32));
        }
        runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{compress, BriscOptions};
    use codecomp_front::compile;
    use codecomp_vm::codegen::compile_module;
    use codecomp_vm::interp::Machine;
    use codecomp_vm::isa::IsaConfig;

    /// Front end → VM interpreter and front end → BRISC interpreter must
    /// agree on value and output, under several compressor option sets.
    fn differential(src: &str, args: &[i64]) {
        let ir = compile(src).unwrap();
        let vm = compile_module(&ir, IsaConfig::full()).unwrap();
        let expect = Machine::new(&vm, 1 << 20, 1 << 26)
            .unwrap()
            .run("main", args)
            .unwrap();
        let variants = [
            ("default", BriscOptions::default()),
            (
                "no-combination",
                BriscOptions {
                    combination: false,
                    ..Default::default()
                },
            ),
            (
                "no-specialization",
                BriscOptions {
                    specialization: false,
                    ..Default::default()
                },
            ),
            (
                "no-epi",
                BriscOptions {
                    epi: false,
                    ..Default::default()
                },
            ),
            (
                "order0",
                BriscOptions {
                    order0: true,
                    ..Default::default()
                },
            ),
            (
                "abundant",
                BriscOptions {
                    regime: codecomp_core::dict::MemoryRegime::Abundant,
                    ..Default::default()
                },
            ),
        ];
        for (name, options) in variants {
            let report = compress(&vm, options).unwrap();
            let mut m = BriscMachine::new(&report.image, 1 << 20, 1 << 26).unwrap();
            let got = m.run("main", args).unwrap();
            assert_eq!(got.value, expect.value, "value mismatch under {name}");
            assert_eq!(got.output, expect.output, "output mismatch under {name}");
            assert!(m.touched_code_bytes() > 0, "touch map empty under {name}");
        }
    }

    #[test]
    fn arithmetic_and_locals() {
        differential(
            "int main() { int x = 7; int y = x * 6; return y - (x % 3); }",
            &[],
        );
    }

    #[test]
    fn loops_and_branches() {
        differential(
            "int main() {
                 int s = 0; int i;
                 for (i = 0; i < 25; i++) { if (i % 3 == 0) continue; s += i; }
                 return s;
             }",
            &[],
        );
    }

    #[test]
    fn calls_and_recursion() {
        differential(
            "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
             int main() { return fib(11); }",
            &[],
        );
    }

    #[test]
    fn the_paper_example_runs_compressed() {
        differential(
            "int pepper(int a, int b) { return a + b; }
             int salt(int j, int i) { if (j > 0) { pepper(i, j); j--; } return j; }
             int main() { return salt(3, 9) * 10 + salt(0, 4); }",
            &[],
        );
    }

    #[test]
    fn arrays_strings_output() {
        differential(
            "char msg[6] = \"hello\";
             int main() {
                 int n = 0;
                 char *s = msg;
                 while (*s) { print_char(*s); s++; n++; }
                 print_int(n);
                 return n;
             }",
            &[],
        );
    }

    #[test]
    fn many_arguments() {
        differential(
            "int sum6(int a, int b, int c, int d, int e, int f) {
                 return a + b + c + d + e + f;
             }
             int main() { return sum6(1, 2, 3, 4, 5, 6); }",
            &[],
        );
    }

    #[test]
    fn entry_arguments_forwarded() {
        let ir = compile("int main(int a, int b) { return a * b + 1; }").unwrap();
        let vm = compile_module(&ir, IsaConfig::full()).unwrap();
        let report = compress(&vm, BriscOptions::default()).unwrap();
        let mut m = BriscMachine::new(&report.image, 1 << 20, 1 << 24).unwrap();
        assert_eq!(m.run("main", &[6, 7]).unwrap().value, 43);
    }

    #[test]
    fn faults_surface_as_errors() {
        let ir = compile("int main() { int x = 0; return 5 / x; }").unwrap();
        let vm = compile_module(&ir, IsaConfig::full()).unwrap();
        let report = compress(&vm, BriscOptions::default()).unwrap();
        let mut m = BriscMachine::new(&report.image, 1 << 20, 1 << 24).unwrap();
        assert!(m.run("main", &[]).is_err());
    }

    #[test]
    fn fuel_limits_runaway_loops() {
        let ir = compile("int main() { while (1) ; return 0; }").unwrap();
        let vm = compile_module(&ir, IsaConfig::full()).unwrap();
        let report = compress(&vm, BriscOptions::default()).unwrap();
        let mut m = BriscMachine::new(&report.image, 1 << 20, 1000).unwrap();
        assert!(matches!(m.run("main", &[]), Err(BriscError::Exec(_))));
    }

    #[test]
    fn governed_machine_quarantines_and_recovers() {
        let src = "
            int f(int x) { return x + 1; }
            int g(int x) { int i; int s = 0; for (i = 0; i < x; i++) s += i * i * x + i; return s; }
            int h(int x) { return g(x) + f(x); }
            int main() { return f(41); }
        ";
        let ir = compile(src).unwrap();
        let vm = compile_module(&ir, IsaConfig::full()).unwrap();
        let report = compress(&vm, BriscOptions::default()).unwrap();
        let image = &report.image;

        // Per-function decode cost under a generous meter; the scan's
        // fuel spend is deterministic, so it doubles as the boundary.
        let mut fuels = std::collections::HashMap::new();
        for (i, f) in image.functions.iter().enumerate() {
            let b = codecomp_core::Budget::default();
            image
                .validate_function(i, &DecodeTables::new(image), &b, &mut ItemBuf::default())
                .unwrap();
            fuels.insert(f.name.clone(), b.usage().fuel_spent);
        }
        let g_fuel = fuels["g"];
        assert!(
            fuels.iter().all(|(n, &v)| n == "g" || v < g_fuel),
            "g must be the most expensive function: {fuels:?}"
        );
        let limits = codecomp_core::DecodeLimits {
            decode_fuel: g_fuel - 1,
            ..codecomp_core::DecodeLimits::default()
        };

        // Exactly g is quarantined, as a limit trip (never Malformed).
        let mut m = BriscMachine::new_governed(image, 1 << 20, 1 << 24, limits).unwrap();
        let q = m.quarantined_functions();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].0, "g");
        assert!(matches!(
            q[0].1,
            codecomp_core::DecodeError::LimitExceeded { .. }
        ));

        // The rest of the module runs normally.
        assert_eq!(m.run("main", &[]).unwrap().value, 42);

        // Reaching the quarantined function traps cleanly.
        let mut m2 = BriscMachine::new_governed(image, 1 << 20, 1 << 24, limits).unwrap();
        let err = m2.run("h", &[3]).unwrap_err();
        assert!(
            matches!(err, BriscError::Quarantined { ref name, .. } if name == "g"),
            "got {err:?}"
        );

        // Raising the budget recovers it.
        let mut m3 = BriscMachine::new_governed(image, 1 << 20, 1 << 24, limits).unwrap();
        m3.revalidate("g", codecomp_core::DecodeLimits::default())
            .unwrap();
        assert!(m3.quarantined_functions().is_empty());
        let expect = Machine::new(&vm, 1 << 20, 1 << 26)
            .unwrap()
            .run("h", &[3])
            .unwrap();
        assert_eq!(m3.run("h", &[3]).unwrap().value, expect.value);
    }

    #[test]
    fn one_machine_reuses_its_decode_buffer_across_scans_and_runs() {
        let src = "int sq(int x) { return x * x; } int main() { return sq(6) + sq(2); }";
        let vm = compile_module(&compile(src).unwrap(), IsaConfig::full()).unwrap();
        let report = compress(&vm, BriscOptions::default()).unwrap();
        let limits = codecomp_core::DecodeLimits::default();
        let mut m = BriscMachine::new_governed(&report.image, 1 << 20, 1 << 24, limits).unwrap();
        assert!(m.quarantined_functions().is_empty());
        assert_eq!(m.run("main", &[]).unwrap().value, 40);
        m.revalidate("sq", limits).unwrap();
        assert_eq!(m.run("main", &[]).unwrap().value, 40);
        assert_eq!(m.run("sq", &[7]).unwrap().value, 49);
    }

    #[test]
    fn every_tier_rejects_an_empty_dictionary_entry() {
        // main: li n0,5; <empty entry>; rjr ra. A serialized image with
        // an empty entry is rejected at load, so this one is hand-built.
        use crate::entry::{DictEntry, InstPattern};
        use crate::image::{assemble, FuncItems, Item};
        use codecomp_vm::asm::parse_inst;
        use codecomp_vm::encode::Field;
        use codecomp_vm::reg::Reg;
        let single = |s| DictEntry::single(InstPattern::base_of(&parse_inst(s, 1).unwrap()));
        let dictionary = vec![single("li n0,1"), DictEntry::default(), single("rjr ra")];
        let items = vec![
            Item {
                entry: 0,
                values: vec![Field::Reg(Reg::new(0)), Field::Imm(5)],
            },
            Item {
                entry: 1,
                values: vec![],
            },
            Item {
                entry: 2,
                values: vec![Field::Reg(Reg::RA)],
            },
        ];
        let main = FuncItems {
            name: "main".into(),
            param_count: 0,
            frame_size: 0,
            saved_regs: vec![],
            leaders: vec![true, false, false],
            items,
        };
        let image = assemble(dictionary, vec![main], vec![]).unwrap();
        let corrupt = BriscError::Corrupt("empty dictionary entry".into());

        let mut m = BriscMachine::new(&image, 1 << 16, 1 << 12).unwrap();
        assert_eq!(m.run("main", &[]), Err(corrupt.clone()));
        assert_eq!(crate::translate::translate(&image).unwrap_err(), corrupt);
        let limits = codecomp_core::DecodeLimits::default();
        let mut governed = BriscMachine::new_governed(&image, 1 << 16, 1 << 12, limits).unwrap();
        let cause = codecomp_core::DecodeError::from(corrupt);
        assert_eq!(
            governed.quarantined_functions(),
            vec![("main".to_string(), cause.clone())]
        );
        assert_eq!(
            governed.run("main", &[]),
            Err(BriscError::Quarantined {
                name: "main".into(),
                cause
            })
        );
    }

    #[test]
    fn working_set_smaller_than_whole_program_for_partial_execution() {
        // Only main and f are executed; g/h are dead weight.
        let src = "
            int f(int x) { return x + 1; }
            int g(int x) { int i; int s = 0; for (i = 0; i < x; i++) s += i * i; return s; }
            int h(int x) { return g(x) * g(x + 1) - f(x); }
            int main() { return f(41); }
        ";
        let ir = compile(src).unwrap();
        let vm = compile_module(&ir, IsaConfig::full()).unwrap();
        let report = compress(&vm, BriscOptions::default()).unwrap();
        let mut m = BriscMachine::new(&report.image, 1 << 20, 1 << 24).unwrap();
        m.run("main", &[]).unwrap();
        let touched = m.touched_code_bytes();
        assert!(touched > 0);
        assert!(
            touched < report.image.code_size() / 2,
            "touched {} of {} bytes",
            touched,
            report.image.code_size()
        );
        let runs = m.touched_runs();
        assert!(!runs.is_empty());
        let run_total: u32 = runs.iter().map(|&(_, l)| l).sum();
        assert_eq!(run_total as usize, touched);
    }
}
