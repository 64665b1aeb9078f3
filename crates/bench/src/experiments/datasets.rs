//! Table 4 — the dataset catalog, paper sizes vs generated stand-ins.

use crate::report::{Cell, Report, Table};
use crate::Scale;
use hybridgraph_graph::Dataset;

/// Adds the paper's Table 4 next to the generated stand-ins.
pub fn run(scale: Scale, rep: &mut Report) {
    let mut t = Table::new(
        format!("Table 4 — datasets (stand-ins at 1/{})", scale.0),
        &[
            "graph",
            "paper |V|",
            "paper |E|",
            "paper deg",
            "gen |V|",
            "gen |E|",
            "gen deg",
            "gen maxdeg",
        ],
    );
    for d in Dataset::ALL {
        let spec = d.spec();
        let g = scale.build(d);
        t.row(vec![
            Cell::text(d.name()),
            Cell::text(format!("{:.1}M", spec.paper_vertices as f64 / 1e6)),
            Cell::text(format!("{:.0}M", spec.paper_edges as f64 / 1e6)),
            Cell::Fixed(spec.paper_avg_degree(), 1),
            Cell::Count(g.num_vertices() as u64),
            Cell::Count(g.num_edges() as u64),
            Cell::Fixed(g.avg_degree(), 1),
            Cell::Count(g.max_degree() as u64),
        ]);
    }
    rep.add(t);
}
