//! One module per reproduced table/figure. Each entry point takes the
//! dataset [`Scale`] and adds the tables the paper's figure plots to a
//! [`Report`], which prints them; [`paper`] runs every figure, table and
//! theorem of the paper's evaluation into one report.

use crate::report::Report;
use crate::Scale;

pub mod ablation;
pub mod billion;
pub mod datasets;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17_18;
pub mod fig2;
pub mod fig26;
pub mod gateway;
pub mod graphhp;
pub mod io_compress;
pub mod multi_tenant;
pub mod observe;
pub mod overall;
pub mod prediction;
pub mod service_restart;
pub mod table5;
pub mod theorems;
pub mod trace;
pub mod vblocks;

/// The paper's evaluation into one report — the tables `datasets`,
/// `fig2`, `fig7`–`fig18`, `table5`, `vblocks`, `fig26` and `theorems`
/// print alone, in that order. Figs. 8 and 10 read one set of
/// limited-memory HDD runs, Figs. 11–13 one hybrid SSSP/SA sweep, and
/// Figs. 17 and 18 one push PageRank per stand-in.
pub fn paper(scale: Scale, rep: &mut Report) {
    datasets::run(scale, rep);
    fig2::run(scale, rep);
    overall::figs7_to_10(scale, rep);
    prediction::figs11_to_13(scale, rep);
    fig14::run(scale, rep);
    fig15::run(scale, rep);
    fig16::run(scale, rep);
    fig17_18::figs17_18(scale, rep);
    table5::run(scale, rep);
    vblocks::run(scale, rep);
    fig26::run(scale, rep);
    theorems::run(scale, rep);
}
