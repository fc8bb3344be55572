(* Folding the program's own [Obs] reports into per-layer figures. One
   accumulator collects the reports of a pass (one per cell or job):
   counters and span durations add up, gauges take the maximum. *)

type acc = {
  sums : (string, float) Hashtbl.t;
  maxes : (string, float) Hashtbl.t;
}

let create () = { sums = Hashtbl.create 64; maxes = Hashtbl.create 16 }

let number = function
  | Obs.Json.Int i -> Some (float_of_int i)
  | Obs.Json.Float f -> Some f
  | _ -> None

let fields path json =
  let rec walk j = function
    | [] -> Some j
    | k :: rest -> Option.bind (Obs.Json.member k j) (fun j -> walk j rest)
  in
  match walk json path with Some (Obs.Json.Obj kv) -> kv | _ -> []

let add_to h k v =
  Hashtbl.replace h k (v +. Option.value ~default:0. (Hashtbl.find_opt h k))

let max_to h k v =
  Hashtbl.replace h k (max v (Option.value ~default:v (Hashtbl.find_opt h k)))

(* Fold one [Obs.report_json] into [acc]. Durations land as
   ["<span>.s"], counters and gauges under their own names. *)
let add acc report =
  let each path f =
    List.iter (fun (k, v) -> Option.iter (f k) (number v)) (fields path report)
  in
  each [ "deterministic"; "counters" ] (add_to acc.sums);
  each [ "runtime"; "counters" ] (add_to acc.sums);
  each [ "deterministic"; "gauges" ] (max_to acc.maxes);
  each [ "runtime"; "gauges" ] (max_to acc.maxes);
  List.iter
    (fun (k, v) ->
      Option.iter
        (fun ns -> add_to acc.sums (k ^ ".s") (ns /. 1e9))
        (Option.bind (Obs.Json.member "total_ns" v) number))
    (fields [ "runtime"; "durations" ] report)

let sum acc k = Option.value ~default:0. (Hashtbl.find_opt acc.sums k)
let gauge acc k = Option.value ~default:0. (Hashtbl.find_opt acc.maxes k)
let ratio a b = if b > 0. then a /. b else 0.

(* Sum of every [guard.rung.*] counter: degradation-ladder descents. *)
let rungs acc =
  Hashtbl.fold
    (fun k v n ->
      if String.length k > 11 && String.sub k 0 11 = "guard.rung." then n +. v
      else n)
    acc.sums 0.

(* The per-layer figures the program's own instrumentation gives. *)
let figures acc =
  let s = sum acc in
  [
    ("core.balance_s", s "opt.balance.s");
    ("core.round_s", s "opt.round.s");
    ("core.spcf_s", s "opt.spcf.s");
    ("core.window_s", s "opt.window.s");
    ("core.secondary_s", s "opt.secondary.s");
    ("core.reconstruct_s", s "opt.reconstruct.s");
    ("core.polish_s", s "opt.polish.s");
    ("core.sat_sweep_s", s "opt.sat_sweep.s");
    ("core.final_cec_s", s "opt.final_cec.s");
    ( "core.round_self_s",
      Float.max 0.
        (s "opt.round.s" -. s "opt.spcf.s" -. s "opt.window.s"
       -. s "opt.secondary.s" -. s "opt.reconstruct.s") );
    ("core.rounds", s "opt.rounds");
    ("core.outputs_decomposed", s "opt.outputs_decomposed");
    ("core.jobs_skipped_support", s "opt.jobs_skipped_support");
    ("aig.cec.sat_calls", s "cec.sat_calls");
    ("aig.cec.fraig_merges", s "cec.fraig_merges");
    ("aig.sweep.merges", s "sweep.merges");
    ("sat.conflicts", s "sat.conflicts");
    ("sat.propagations", s "sat.propagations");
    ("sat.decisions", s "sat.decisions");
    ("bdd.nodes_allocated", s "bdd.nodes_allocated");
    ("bdd.peak_live_nodes", gauge acc "bdd.peak_live_nodes");
    ("bdd.ite_hit_ratio", ratio (s "bdd.ite_hits") (s "bdd.ite_lookups"));
    ("bdd.managers", s "bdd.managers");
    ( "network.globals_reuse_ratio",
      ratio (s "globals.reused") (s "globals.reused" +. s "globals.recomputed")
    );
    ("network.levels_repair_visits", s "levels.repair_visits");
    ("timing.spcf_calls", s "spcf.approx_calls" +. s "spcf.exact_calls");
    ("timing.spcf_chain_steps", s "spcf.chain_steps");
    ("guard.rungs", rungs acc);
  ]

(* The part of a pass's top-level optimizer phases, for self time. *)
let optimizer_phases acc =
  List.fold_left
    (fun t k -> t +. sum acc (k ^ ".s"))
    0.
    [ "opt.balance"; "opt.round"; "opt.polish"; "opt.sat_sweep"; "opt.final_cec" ]
