(* The repository benchmark. One invocation runs one workload:

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   --serve-bin PATH

   It builds the workload's inputs from the seed (set-up, repeated and
   timed), runs whole passes over them for S seconds, checks every
   output independently and prints one JSON result as its last line.
   With --trace 0 the result holds the end-to-end metrics of untraced
   passes; with --trace 1 it makes one untraced pass, then traced
   passes, and holds the per-layer metrics. Every batch run is at -j 1 with the
   anytime deadline off. Exit code 0 only when every check passed. *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let serve_bin = ref ""

let usage = "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1"

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME workload to run");
    ("--seed", Arg.Set_int seed, "N input seed");
    ("--seconds", Arg.Set_float seconds, "S measuring time");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
    ("--serve-bin", Arg.Set_string serve_bin, "PATH lookahead_serve binary");
  ]

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* Linear-interpolation quantile, [q] in [0, 1]. *)
let quantile q = function
  | [] -> 0.
  | l ->
    let a = Array.of_list (List.sort compare l) in
    let h = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float h in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

(* {1 Workloads} *)

let bdd_circuits = [ "C1355" ]
let table2_circuits = [ "dalu"; "C880"; "sparc_tlu_intctl_flat"; "lsu_stb_ctl_flat" ]
let table2_tools = [ "sis"; "abc"; "dc"; "lookahead" ]

(* Build a batch workload's cells; returns them and the seconds spent
   in [Circuits.Suite.build]. *)
let batch_cells name seed =
  let built = ref 0. in
  let build c =
    let t0 = Tracer.now () in
    let g = Circuits.Suite.build c in
    built := !built +. (Tracer.now () -. t0);
    g
  in
  let cells =
    match name with
    | "bdd-lookahead" ->
      List.map
        (fun c -> { Batch.label = c; tool = "lookahead"; src = Built (build c) })
        bdd_circuits
    | "table2-rewrite" ->
      List.concat_map
        (fun c ->
          let g = build c in
          List.map
            (fun tool -> { Batch.label = c ^ "/" ^ tool; tool; src = Built g })
            table2_tools)
        table2_circuits
    | "deep-blif" ->
      List.map
        (fun (label, text) -> { Batch.label; tool = "lookahead"; src = Text text })
        (Gen.deep_blif_set (Gen.rng seed) ~count:4 ~depth:1000)
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  (Array.of_list cells, !built)

(* Run set-up once untimed, so the heap has grown and its pages are
   mapped, then [reps] times timed, [release]-ing every result but the
   last, untimed. Returns the median time and the last result. The
   host's speed swings by tens of percent from one second to the next,
   so the timed repetitions are spread over about 1.5 s by sleeping
   between them; their count is fixed, so the heap the passes inherit
   is the same on every run. *)
let repeat_setup ?(release = ignore) ~reps f =
  release (f ());
  let rec go n times =
    Unix.sleepf (1.5 /. float_of_int reps);
    let t0 = Tracer.now () in
    let r = f () in
    let times = (Tracer.now () -. t0) :: times in
    if n + 1 >= reps then (times, r)
    else begin
      release r;
      go (n + 1) times
    end
  in
  let times, last = go 0 [] in
  Gc.compact ();
  (median times, last)

(* {1 Passes}

   [run_pass ~traced k] runs whole pass [k]. Untraced runs repeat
   untraced passes. Traced runs make one untraced pass, the base of
   [trace.overhead_ratio], then traced passes, at least two so that the
   Det counters can be compared across repetitions. Passes continue
   until [seconds] have been measured and [min_passes] have run; past
   the first traced pass, no pass starts that could push the run past
   its time limit. *)
let schedule ~traced_run ~min_passes run_pass =
  let t0 = Tracer.now () in
  let min_passes = if traced_run then 3 else min_passes in
  let rec go acc k =
    let traced = traced_run && k > 0 in
    let p = run_pass ~traced k in
    let acc = p :: acc in
    let elapsed = Tracer.now () -. t0 in
    let more = k + 1 < min_passes || elapsed < !seconds in
    let fits = elapsed +. (p.Job.wall *. 1.5) < 110. && k < 200 in
    if (traced_run && k = 0) || (more && fits) then go acc (k + 1)
    else List.rev acc
  in
  go [] 0

(* {1 Checks} *)

let failures = ref []
let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt

(* Outputs and quality must repeat exactly across the passes of this
   run, traced or not, and Det counters across its traced passes. *)
let check_determinism (passes : Job.pass list) =
  match passes with
  | [] -> ()
  | first :: _ ->
    let first_traced = List.find_opt (fun p -> p.Job.traced) passes in
    List.iteri
      (fun k (p : Job.pass) ->
        Array.iteri
          (fun i r ->
            match (r, first.jobs.(i)) with
            | Error e, _ -> fail "pass %d: %s" k e
            | Ok _, Error _ -> ()
            | Ok (j : Job.t), Ok (j0 : Job.t) ->
              if j.quality <> j0.quality then fail "pass %d: %s quality drifted" k j.label;
              if j.blif <> j0.blif then fail "pass %d: %s output drifted" k j.label;
              if p.traced then
                Option.iter
                  (fun (t : Job.pass) ->
                    match t.jobs.(i) with
                    | Ok jt when not (Obs.Json.equal jt.Job.det j.det) ->
                      fail "pass %d: %s Det counters drifted" k j.label
                    | _ -> ())
                  first_traced)
          p.jobs)
      passes

(* The served workload's independent check, run in this process: the
   submitted source, built here, against the returned BLIF. Returns the
   seconds the CEC calls took. *)
let check_pairs pairs labels =
  Tracer.clear ();
  Tracer.on := true;
  Array.iteri
    (fun i pair ->
      match pair with
      | None -> ()
      | Some (input, output) -> (
        match Check.equivalent ~seed:(!seed + i) input output with
        | None -> ()
        | Some why -> fail "%s: %s" labels.(i) why))
    pairs;
  Tracer.on := false;
  Tracer.total "aig.cec.check"

(* {1 Metrics} *)

let end_to_end_units =
  [ ("setup_s", "s"); ("wall_s", "s"); ("peak_heap_mb", "MB");
    ("levels_total", "levels"); ("gates_total", "gates");
    ("delay_ps_total", "ps"); ("power_mw_total", "mW");
    ("jobs_per_s", "1/s"); ("latency_p50_ms", "ms") ]

let per_layer_units =
  [ ("circuits.build_s", "s"); ("aig.io.parse_s", "s");
    ("aig.io.parse_mb_per_s", "MB/s"); ("aig.cec.check_s", "s");
    ("aig.cec.sat_calls", "count"); ("aig.cec.fraig_merges", "count");
    ("aig.sweep.merges", "count"); ("sat.conflicts", "count");
    ("sat.propagations", "count"); ("sat.decisions", "count");
    ("core.optimize_s", "s"); ("core.optimize_self_s", "s");
    ("core.balance_s", "s"); ("core.round_s", "s"); ("core.round_self_s", "s");
    ("core.spcf_s", "s"); ("core.window_s", "s"); ("core.secondary_s", "s");
    ("core.reconstruct_s", "s"); ("core.polish_s", "s");
    ("core.sat_sweep_s", "s"); ("core.final_cec_s", "s");
    ("core.rounds", "count"); ("core.outputs_decomposed", "count");
    ("core.jobs_skipped_support", "count"); ("bdd.nodes_allocated", "count");
    ("bdd.peak_live_nodes", "count"); ("bdd.ite_hit_ratio", "ratio");
    ("bdd.managers", "count"); ("network.globals_reuse_ratio", "ratio");
    ("network.levels_repair_visits", "count"); ("timing.spcf_calls", "count");
    ("timing.spcf_chain_steps", "count"); ("baselines.sis_s", "s");
    ("baselines.abc_s", "s"); ("baselines.dc_s", "s"); ("techmap.map_s", "s");
    ("techmap.sta_s", "s"); ("techmap.power_s", "s");
    ("serve.wait_ms_p50", "ms"); ("serve.run_ms_p50", "ms");
    ("serve.run_ms_p90", "ms"); ("serve.transport_ms_p50", "ms");
    ("guard.rungs", "count"); ("gc.major_collections", "count");
    ("gc.minor_collections", "count"); ("trace.overhead_ratio", "ratio");
    ("trace.unattributed_ratio", "ratio") ]

let ok_jobs (p : Job.pass) =
  Array.to_list p.jobs |> List.filter_map Result.to_option

let end_to_end ~setup_s ~heap_mb (untraced : Job.pass list) =
  let first = List.hd untraced in
  let sum f = List.fold_left (fun t j -> t +. f j.Job.quality) 0. (ok_jobs first) in
  let wall = median (List.map (fun p -> p.Job.wall) untraced) in
  let lat =
    List.concat_map (fun p -> List.map (fun j -> j.Job.latency *. 1e3) (ok_jobs p)) untraced
  in
  [ ("setup_s", setup_s); ("wall_s", wall); ("peak_heap_mb", heap_mb);
    ("levels_total", sum (fun q -> float_of_int q.levels));
    ("gates_total", sum (fun q -> float_of_int q.gates));
    ("delay_ps_total", sum (fun q -> q.delay_ps));
    ("power_mw_total", sum (fun q -> q.power_mw));
    ("jobs_per_s", if wall > 0. then float_of_int (Array.length first.jobs) /. wall else 0.);
    ("latency_p50_ms", quantile 0.5 lat) ]

(* Per-layer figures of one traced pass. *)
let pass_layers ~cec_s (p : Job.pass) =
  let totals = Tracer.totals p.spans in
  let span k = Option.value ~default:0. (Hashtbl.find_opt totals k) in
  let jobs = ok_jobs p in
  let ms f = List.map f jobs in
  let parse = span "aig.io.parse" in
  [ ("aig.io.parse_s", parse);
    ( "aig.io.parse_mb_per_s",
      if parse > 0. then float_of_int p.parse_bytes /. parse /. 1e6 else 0. );
    ("aig.cec.check_s", cec_s); ("core.optimize_s", span "core.optimize");
    ( "core.optimize_self_s",
      Float.max 0. (span "core.optimize" -. Layers.optimizer_phases p.layers) );
    ("baselines.sis_s", span "baselines.sis");
    ("baselines.abc_s", span "baselines.abc");
    ("baselines.dc_s", span "baselines.dc"); ("techmap.map_s", span "techmap.map");
    ("techmap.sta_s", span "techmap.sta"); ("techmap.power_s", span "techmap.power");
    ("serve.wait_ms_p50", quantile 0.5 (ms (fun j -> j.Job.wait_ms)));
    ("serve.run_ms_p50", quantile 0.5 (ms (fun j -> j.Job.run_ms)));
    ("serve.run_ms_p90", quantile 0.9 (ms (fun j -> j.Job.run_ms)));
    ( "serve.transport_ms_p50",
      if List.exists (fun j -> j.Job.run_ms > 0.) jobs then
        quantile 0.5 (ms (fun j -> (j.Job.latency *. 1e3) -. j.wait_ms -. j.run_ms))
      else 0. );
    ("gc.major_collections", float_of_int p.gc_major);
    ("gc.minor_collections", float_of_int p.gc_minor);
    ( "trace.unattributed_ratio",
      if p.wall > 0. then Float.max 0. (1. -. (Tracer.top_level p.spans /. p.wall))
      else 0. ) ]
  @ Layers.figures p.layers

let per_layer ~build_s ~cec_s (passes : Job.pass list) =
  let traced = List.filter (fun p -> p.Job.traced) passes in
  let untraced = List.filter (fun p -> not p.Job.traced) passes in
  let each = List.map (pass_layers ~cec_s) traced in
  let med k = median (List.map (List.assoc k) each) in
  let wall l = median (List.map (fun p -> p.Job.wall) l) in
  let figures = List.map (fun (k, _) -> (k, med k)) (List.hd each) in
  [ ("circuits.build_s", build_s);
    ( "trace.overhead_ratio",
      if wall untraced > 0. then wall traced /. wall untraced else 0. ) ]
  @ figures

(* {1 Result} *)

let print_result ~attempted metrics units =
  let failed = List.length !failures in
  let correct = failed = 0 in
  List.iter (fun f -> log "FAIL %s" f) (List.rev !failures);
  let metric (k, unit) =
    let v = try List.assoc k metrics with Not_found -> failwith ("missing metric " ^ k) in
    (k, Obs.Json.Obj [ ("value", Obs.Json.Float v); ("unit", Obs.Json.String unit) ])
  in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [ ("correct", Obs.Json.Bool correct);
            ("attempted", Obs.Json.Int attempted);
            ("failed", Obs.Json.Int (min failed attempted));
            ("metrics", Obs.Json.Obj (List.map metric units)) ]));
  exit (if correct then 0 else 1)

let report ~traced_run ~setup_s ~build_s ~heap_mb ~cec_s passes =
  let untraced = List.filter (fun p -> not p.Job.traced) passes in
  List.iter
    (fun (p : Job.pass) ->
      log "pass %s: %.3f s, %d jobs" (if p.traced then "traced" else "untraced")
        p.wall (Array.length p.jobs))
    passes;
  Array.iter
    (function
      | Ok (j : Job.t) ->
        log "  %-28s %8.3f s  levels %d  gates %d  delay %.1f ps  power %.4f mW"
          j.label j.latency j.quality.levels j.quality.gates j.quality.delay_ps
          j.quality.power_mw
      | Error e -> log "  %s" e)
    (List.hd passes).jobs;
  check_determinism passes;
  let attempted = List.fold_left (fun n p -> n + Array.length p.Job.jobs) 0 passes in
  if traced_run then begin
    let layers = per_layer ~build_s ~cec_s passes in
    if List.assoc "guard.rungs" layers > 0. then fail "degradation ladder walked";
    (* The last traced pass's benchmark spans, as a Chrome trace. *)
    let last = List.nth passes (List.length passes - 1) in
    let oc =
      open_out (Printf.sprintf ".bench_build/perfbench-trace-%s-%d.json" !workload !seed)
    in
    output_string oc (Obs.Json.to_string (Tracer.to_json last.Job.spans));
    close_out oc;
    print_result ~attempted layers per_layer_units
  end
  else print_result ~attempted (end_to_end ~setup_s ~heap_mb untraced) end_to_end_units

(* {1 Main} *)

let run_batch ~traced_run =
  let setup_s, (cells, build_s) =
    repeat_setup ~reps:51 (fun () -> batch_cells !workload !seed)
  in
  let cec_s = ref 0. and heap = ref 0 in
  let passes =
    schedule ~traced_run ~min_passes:1 (fun ~traced k ->
        let p, failed, check_s, top_heap =
          Batch.run_pass ~traced ~check:(k = 0) ~seed:!seed cells
        in
        List.iter (fail "%s") failed;
        if k = 0 then cec_s := check_s;
        heap := max !heap top_heap;
        p)
  in
  report ~traced_run ~setup_s ~build_s ~cec_s:!cec_s
    ~heap_mb:(float_of_int (!heap * (Sys.word_size / 8)) /. 1e6)
    passes

let run_serve ~traced_run =
  if !serve_bin = "" || not (Sys.file_exists !serve_bin) then
    failwith "--serve-bin must name the lookahead_serve binary";
  let socket = Printf.sprintf ".bench_build/perfbench-%d.sock" (Unix.getpid ()) in
  let boot () =
    let items =
      Array.map
        (fun (label, source) -> { Closed.label; source })
        (Gen.serve_mix (Gen.rng !seed))
    in
    (items, Closed.start ~bin:!serve_bin ~socket)
  in
  let setup_s, (items, server) =
    repeat_setup ~reps:21 ~release:(fun (_, s) -> Closed.stop s) boot
  in
  let _, client = server in
  (* One unmeasured pass warms the server: its BDD manager pool and its
     process-level memo tables fill, as they are on a long-lived server. *)
  let order k =
    let o = Array.init (Array.length items) Fun.id in
    Gen.shuffle (Gen.rng ((!seed * 1000) + k)) o;
    o
  in
  let warm, _ =
    Closed.run_pass ~traced:false ~report_last:false ~order:(order 0) client items
  in
  log "warm-up pass: %.3f s" warm.Job.wall;
  let heap = ref 0. in
  let passes =
    (* A warm pass takes about 5 s: three of them give 48 latency
       samples over three seeded orders. *)
    schedule ~traced_run ~min_passes:3 (fun ~traced k ->
        let p, h =
          Closed.run_pass ~traced ~report_last:true ~order:(order (k + 1)) client items
        in
        heap := Float.max !heap h;
        p)
  in
  let pairs = Closed.pairs items (List.hd passes) in
  let cec_s = check_pairs pairs (Array.map (fun i -> i.Closed.label) items) in
  Array.iteri
    (fun i r ->
      match (r, pairs.(i)) with
      | Ok (j : Job.t), Some (_, out) when Aig.depth out <> j.quality.levels ->
        fail "%s: returned BLIF has %d levels, result says %d" j.label
          (Aig.depth out) j.quality.levels
      | _ -> ())
    (List.hd passes).jobs;
  Closed.stop server;
  report ~traced_run ~setup_s ~build_s:0.
    ~heap_mb:(!heap *. float_of_int (Sys.word_size / 8) /. 1e6)
    ~cec_s passes

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !trace <> 0 && !trace <> 1 then (prerr_endline usage; exit 2);
  Par.set_default_jobs 1;
  if not (Sys.file_exists ".bench_build") then Sys.mkdir ".bench_build" 0o755;
  let traced_run = !trace = 1 in
  match !workload with
  | "bdd-lookahead" | "table2-rewrite" | "deep-blif" -> run_batch ~traced_run
  | "serve-closed" -> run_serve ~traced_run
  | w ->
    log "unknown workload %S" w;
    exit 2
