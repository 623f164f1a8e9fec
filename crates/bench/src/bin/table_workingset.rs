//! E3 — the working-set experiment.
//!
//! Paper claim (§1/§4): "We can interpret BRISC code with a typical 12×
//! time penalty while cutting working set size by over 40%."
//!
//! For each program, the native-tier working set is the set of pages of
//! x86 code containing instructions that actually executed; the BRISC
//! working set is the set of pages of compressed code actually decoded.
//! Page size is scaled down (256 B) because our programs are KB-scale
//! where the paper's were MB-scale; the reduction *ratio* is the
//! measurement of interest.
//!
//! Usage: `table_workingset [--full] [--page <bytes>]`.

use codecomp_bench::{subjects, Scale, Table};
use codecomp_brisc::interp::BriscMachine;
use codecomp_brisc::{compress, BriscOptions};
use codecomp_memsim::Pager;
use codecomp_vm::interp::Machine;
use codecomp_vm::native::X86Encoder;
use codecomp_vm::program::FlatProgram;

const MEM: u32 = 1 << 22;
const FUEL: u64 = 1 << 34;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = if args.iter().any(|a| a == "--full") {
        Scale::WithSynthetic
    } else {
        Scale::CorpusOnly
    };
    let page: u32 = args
        .iter()
        .position(|a| a == "--page")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(256);

    println!("E3: working sets of executed code ({page}-byte pages)\n");
    let mut table = Table::new(&[
        "program",
        "native pages",
        "brisc pages",
        "reduction",
        "interp insts/item",
    ]);
    let mut total_native = 0usize;
    let mut total_brisc = 0usize;
    for s in subjects(scale) {
        // Native tier: per-instruction x86 offsets + execution counts.
        let flat = FlatProgram::link(&s.vm).expect("link succeeds");
        let mut offsets = Vec::with_capacity(flat.code.len());
        let mut enc = X86Encoder::new();
        let mut at = 0usize;
        for inst in &flat.code {
            let n = enc.emit(inst);
            offsets.push((at as u32, n as u32));
            at += n;
        }
        let mut machine = Machine::new(&s.vm, MEM, FUEL).expect("machine");
        machine.run("main", &[]).expect("native run succeeds");
        let mut native_pager = Pager::new(page);
        for (i, &count) in machine.exec_counts.iter().enumerate() {
            if count > 0 {
                let (off, len) = offsets[i];
                native_pager.access_run(off, len.max(1));
            }
        }

        // BRISC tier: decoded-byte touch map.
        let report = compress(&s.vm, BriscOptions::default()).expect("compression succeeds");
        let mut bm = BriscMachine::new(&report.image, MEM, FUEL).expect("machine");
        let outcome = bm.run("main", &[]).expect("interp run succeeds");
        let mut brisc_pager = Pager::new(page);
        for (off, len) in bm.touched_runs() {
            brisc_pager.access_run(off, len);
        }

        let np = native_pager.working_set_pages();
        let bp = brisc_pager.working_set_pages();
        total_native += np;
        total_brisc += bp;
        table.row(&[
            s.name.clone(),
            np.to_string(),
            bp.to_string(),
            format!("{:.0}%", 100.0 * (1.0 - bp as f64 / np as f64)),
            format!(
                "{:.2}",
                outcome.instructions as f64 / outcome.items_decoded as f64
            ),
        ]);
    }
    table.print();
    println!(
        "\ntotal: native {total_native} pages, brisc {total_brisc} pages \
         ({:.0}% reduction). paper reference: >40% working-set cut.",
        100.0 * (1.0 - total_brisc as f64 / total_native as f64)
    );
}
