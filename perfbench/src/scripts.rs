//! Seeded projection scripts and explore sessions.
//!
//! Every script is a variant of the paper's Fig. 4/5 three-ring script
//! (global links, routers, terminals) with a varied aggregate key, vmap
//! fields and `maxBins`, so each session asks for a view the server has
//! not seen before.

use crate::util::Rng;

/// One projection script, derived from the Fig. 5(a) layout.
pub fn script(rng: &mut Rng) -> String {
    let ring_key = rng.pick(&["group_id", "router_rank"]);
    let max_bins = 4 + rng.below(29);
    let (ring_color, ring_size) = *rng.pick(&[("sat_time", "traffic"), ("traffic", "sat_time")]);
    let router_key = rng.pick(&["router_rank", "group_id"]);
    let router_color =
        rng.pick(&["total_sat_time", "total_traffic", "global_traffic", "local_sat_time"]);
    let terminal_key =
        rng.pick(&["[\"router_port\", \"workload\"]", "[\"router_rank\", \"router_port\"]"]);
    let terminal_color = rng.pick(&["workload", "data_size", "avg_latency"]);
    let terminal_size = rng.pick(&["avg_hops", "data_size", "packets_finished"]);
    format!(
        r#"{{
  aggregate : "{ring_key}",
  maxBins : {max_bins},
  project : "global_link",
  vmap : {{ color : "{ring_color}", size : "{ring_size}" }},
  colors : ["white", "purple"],
  ribbons : {{ project : "global_link", size : "traffic", color : "sat_time" }}
}},
{{
  project : "router",
  aggregate : "{router_key}",
  vmap : {{ color : "{router_color}" }},
  colors : ["white", "steelblue"]
}},
{{
  project : "terminal",
  aggregate : {terminal_key},
  vmap : {{ color : "{terminal_color}", size : "{terminal_size}" }},
  colors : ["green", "orange", "brown"]
}}
"#
    )
}

/// How a session's first request is asked and answered.
#[derive(Clone, Debug)]
pub struct Session {
    pub script: String,
    /// Runs compared (1 = a `/views` request, 2–3 = `/compare`).
    pub runs: usize,
    /// Ask for SVG instead of the JSON envelope.
    pub svg: bool,
}

/// Session shapes, cycled by session number so every run sees the same
/// mix: (runs compared, SVG).
const SHAPES: [(usize, bool); 8] =
    [(1, false), (1, false), (2, false), (1, true), (1, false), (3, false), (1, false), (2, true)];

/// Envelope page size of every cursor walk.
pub const PAGE_SIZE: usize = 32;

/// The `index`-th session of the workload seeded by `seed`: its shape
/// comes from the session number, its script from the seed.
pub fn session(seed: u64, index: u64) -> Session {
    let (runs, svg) = SHAPES[(index % SHAPES.len() as u64) as usize];
    let mut rng = Rng::derive(seed, "session", index);
    Session { script: script(&mut rng), runs, svg }
}
