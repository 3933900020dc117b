//! Regenerates the `PROFILE_GOLDENS` table in `src/conform.rs`.
//!
//! Prints, for every built-in frame-graph profile at the pinned golden
//! configuration (`Scale::Tiny`, frame 0, default coherence, 8 MB-class
//! LLC), the per-stream access counts and the overall DRRIP/GSPC hit
//! rates. Run after any deliberate generator change and copy the numbers
//! into the table:
//!
//! ```text
//! cargo run --release -p grcheck --example profile_goldens_gen
//! ```

use grbench::ExperimentConfig;
use grcache::Llc;
use grsynth::{Frames, Scale, GRAPH_PROFILES};
use grtrace::StreamId;
use gspc::registry;

fn main() {
    let cfg = ExperimentConfig { scale: Scale::Tiny, frames_per_app: Some(1) };
    let llc = cfg.llc(8);
    for p in GRAPH_PROFILES {
        let trace = Frames::from(&p.graph()).render(0, Scale::Tiny).0;
        print!("{}: ", p.name);
        for s in StreamId::ALL {
            let n = trace.accesses().iter().filter(|a| a.stream() == s).count();
            if n > 0 {
                print!("({s:?}, {n}), ");
            }
        }
        for name in ["DRRIP", "GSPC"] {
            let mut l = Llc::new(llc, registry::create(name, &llc).unwrap());
            l.run_source(&mut trace.source()).unwrap();
            let st = l.stats();
            print!("{name} {:.4}  ", st.total_hits() as f64 / st.total_accesses() as f64);
        }
        println!();
    }
}
