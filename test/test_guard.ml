(* Tests for lib/guard: the injection spec language, the monotonic
   deadline, the budget hooks, and — the point of the subsystem — the
   driver's degradation ladder: for every fault class an injected fault
   yields a run that completes, stays CEC-equivalent to its input, and
   records exactly the injected rungs in the [Det] Obs counters,
   bit-identically at any -j.

   Every optimization here runs deadline-free (time_limit_s = infinity)
   unless the test is specifically about wall-clock expiry, so the only
   blowups are the injected ones and the counters are exact. *)

let options =
  { Lookahead.Driver.default with Lookahead.Driver.time_limit_s = infinity }

(* Every test leaves observation off, the sinks empty and injection
   disarmed, so tests are order-independent. *)
let quiesce () =
  Guard.Inject.disarm ();
  Obs.disable ();
  Obs.reset ()

(* Run [f] with [rules] armed; always disarm, even on failure. *)
let with_inject rules f =
  Guard.Inject.arm rules;
  Fun.protect ~finally:Guard.Inject.disarm f

let counters_of_run ?(options = options) spec g =
  Obs.reset ();
  Obs.enable ();
  let o =
    with_inject
      (Result.get_ok (Guard.Inject.of_string spec))
      (fun () -> Lookahead.Driver.optimize ~options g)
  in
  let snap = Obs.snapshot () in
  Obs.disable ();
  Alcotest.(check bool) "run stays CEC-equivalent" true
    (Aig.Cec.equivalent g o);
  (o, fun name -> Obs.counter_value snap name)

(* ------------------------------------------------------------------ *)
(* Injection spec language                                             *)
(* ------------------------------------------------------------------ *)

let test_spec_roundtrip () =
  quiesce ();
  let spec = "bdd@500,sat@3:r,deadline@7:driver.decompose" in
  let rules = Result.get_ok (Guard.Inject.of_string spec) in
  Alcotest.(check int) "three rules" 3 (List.length rules);
  Alcotest.(check string) "roundtrips" spec (Guard.Inject.to_string rules);
  let r = List.nth rules 2 in
  Alcotest.(check bool) "fault parsed" true
    (r.Guard.Inject.fault = Guard.Inject.Deadline_expire);
  Alcotest.(check int) "count parsed" 7 r.Guard.Inject.at;
  Alcotest.(check (option string)) "site parsed"
    (Some "driver.decompose") r.Guard.Inject.site;
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" bad)
        true
        (Result.is_error (Guard.Inject.of_string bad)))
    [ ""; "bdd"; "bdd@"; "bdd@x"; "bdd@0"; "frob@3"; "bdd@3:r:a:b" ]

let test_spec_seeded () =
  quiesce ();
  let a = Guard.Inject.seeded ~seed:42 in
  let b = Guard.Inject.seeded ~seed:42 in
  let c = Guard.Inject.seeded ~seed:43 in
  Alcotest.(check string) "same seed, same rules"
    (Guard.Inject.to_string a) (Guard.Inject.to_string b);
  Alcotest.(check bool) "rules non-empty" true (a <> []);
  (* Not a hard guarantee for every pair, but 42/43 differ. *)
  Alcotest.(check bool) "different seed, different rules" true
    (Guard.Inject.to_string a <> Guard.Inject.to_string c)

(* ------------------------------------------------------------------ *)
(* Monotonic deadline                                                  *)
(* ------------------------------------------------------------------ *)

let test_deadline () =
  let d = Guard.Deadline.after 0.05 in
  Alcotest.(check bool) "fresh deadline not expired" false
    (Guard.Deadline.expired d);
  Alcotest.(check bool) "remaining positive" true
    (Guard.Deadline.remaining_s d > 0.0);
  let stop = Guard.Clock.now_s () +. 0.08 in
  while Guard.Clock.now_s () < stop do
    Domain.cpu_relax ()
  done;
  Alcotest.(check bool) "expired after sleeping past it" true
    (Guard.Deadline.expired d);
  Alcotest.(check bool) "never never expires" false
    (Guard.Deadline.expired Guard.Deadline.never);
  Alcotest.(check bool) "never has infinite slack" true
    (Guard.Deadline.remaining_s Guard.Deadline.never = infinity)

(* ------------------------------------------------------------------ *)
(* Budget hooks                                                        *)
(* ------------------------------------------------------------------ *)

let test_budget_limits () =
  quiesce ();
  Alcotest.(check int) "none is unlimited" max_int
    (Guard.bdd_ceiling Guard.none);
  let t =
    Guard.create
      { Guard.Budget.bdd_node_ceiling = 100; sat_conflict_ceiling = 5; sat_conflict_budget = 0 }
  in
  Alcotest.(check int) "bdd ceiling" 100 (Guard.bdd_ceiling t);
  Alcotest.(check int) "sat cap caps" 5 (Guard.sat_limit t ~requested:4000);
  Alcotest.(check int) "sat cap applies to unlimited" 5
    (Guard.sat_limit t ~requested:0);
  Alcotest.(check int) "smaller request stands" 3
    (Guard.sat_limit t ~requested:3);
  Alcotest.(check int) "no cap, request stands" 4000
    (Guard.sat_limit Guard.none ~requested:4000)

let test_divide () =
  quiesce ();
  let t =
    Guard.create
      { Guard.Budget.bdd_node_ceiling = 100; sat_conflict_ceiling = 5; sat_conflict_budget = 0 }
  in
  let parts = Guard.divide t 3 in
  Alcotest.(check int) "three parts" 3 (List.length parts);
  Alcotest.(check int) "shares sum to the total" 100
    (List.fold_left (fun acc p -> acc + Guard.bdd_ceiling p) 0 parts);
  List.iter
    (fun p ->
      Alcotest.(check int) "sat ceiling replicated, not divided" 5
        (Guard.sat_limit p ~requested:4000))
    parts;
  (* More parts than nodes: every share keeps the floor of 1, even
     though that over-commits the total. *)
  let tiny =
    Guard.create
      { Guard.Budget.bdd_node_ceiling = 2; sat_conflict_ceiling = 0; sat_conflict_budget = 0 }
  in
  List.iter
    (fun p -> Alcotest.(check int) "floor of one node" 1 (Guard.bdd_ceiling p))
    (Guard.divide tiny 5);
  (* Unlimited stays unlimited; [none] divides into inert guards. *)
  let unl =
    Guard.create
      { Guard.Budget.bdd_node_ceiling = 0; sat_conflict_ceiling = 0; sat_conflict_budget = 0 }
  in
  List.iter
    (fun p ->
      Alcotest.(check int) "unlimited share" max_int (Guard.bdd_ceiling p))
    (Guard.divide unl 4);
  List.iter
    (fun p ->
      Alcotest.(check int) "none share" max_int (Guard.bdd_ceiling p))
    (Guard.divide Guard.none 4);
  Alcotest.(check bool) "n = 0 rejected" true
    (try
       ignore (Guard.divide t 0);
       false
     with Invalid_argument _ -> true)

(* The floor-1 path spelled out: when the arms outnumber the node
   budget, every share is the 1-node floor and the shares over-commit
   the whole — [divide] documents this, and [divide_overcommits] is how
   a caller that can serialize instead (the portfolio arm splitter)
   detects it up front. *)
let test_divide_overcommit () =
  quiesce ();
  let mk ceiling =
    Guard.create
      {
        Guard.Budget.bdd_node_ceiling = ceiling;
        sat_conflict_ceiling = 0;
        sat_conflict_budget = 0;
      }
  in
  let t = mk 3 in
  let parts = Guard.divide t 8 in
  Alcotest.(check int) "eight parts" 8 (List.length parts);
  List.iter
    (fun p -> Alcotest.(check int) "each part is the floor" 1 (Guard.bdd_ceiling p))
    parts;
  Alcotest.(check int) "shares over-commit the 3-node whole" 8
    (List.fold_left (fun acc p -> acc + Guard.bdd_ceiling p) 0 parts);
  Alcotest.(check bool) "overcommit predicted" true
    (Guard.divide_overcommits t 8);
  Alcotest.(check bool) "n = ceiling still exact" false
    (Guard.divide_overcommits t 3);
  Alcotest.(check bool) "n < ceiling fine" false (Guard.divide_overcommits t 2);
  Alcotest.(check bool) "unlimited never over-commits" false
    (Guard.divide_overcommits (mk 0) 64);
  Alcotest.(check bool) "ungoverned never over-commits" false
    (Guard.divide_overcommits Guard.none 64);
  Alcotest.(check bool) "n = 0 rejected" true
    (try
       ignore (Guard.divide_overcommits t 0);
       false
     with Invalid_argument _ -> true)

let test_cumulative_sat_budget () =
  quiesce ();
  let t =
    Guard.create
      { Guard.Budget.bdd_node_ceiling = 0; sat_conflict_ceiling = 0;
        sat_conflict_budget = 10 }
  in
  (* The remainder caps every request; spending shrinks the remainder. *)
  Alcotest.(check int) "fresh budget caps request" 10
    (Guard.sat_limit t ~requested:4000);
  Guard.sat_spend t ~conflicts:7;
  Alcotest.(check int) "spend recorded" 7 (Guard.sat_spent t);
  Alcotest.(check int) "remainder caps request" 3
    (Guard.sat_limit t ~requested:4000);
  Alcotest.(check int) "smaller request stands" 2
    (Guard.sat_limit t ~requested:2);
  Alcotest.(check bool) "not yet exhausted" false (Guard.sat_exhausted t);
  Guard.sat_spend t ~conflicts:3;
  Alcotest.(check bool) "exhausted at the budget" true (Guard.sat_exhausted t);
  (* Overspend (a query granted the floor of 1 may overshoot) is benign. *)
  Guard.sat_spend t ~conflicts:5;
  Alcotest.(check bool) "still exhausted" true (Guard.sat_exhausted t);
  (* The per-query ceiling composes with the remainder: min wins. *)
  let both =
    Guard.create
      { Guard.Budget.bdd_node_ceiling = 0; sat_conflict_ceiling = 4;
        sat_conflict_budget = 10 }
  in
  Alcotest.(check int) "ceiling tighter than remainder" 4
    (Guard.sat_limit both ~requested:4000);
  Guard.sat_spend both ~conflicts:8;
  Alcotest.(check int) "remainder tighter than ceiling" 2
    (Guard.sat_limit both ~requested:4000);
  (* Inert guards never track spend and never exhaust. *)
  Guard.sat_spend Guard.none ~conflicts:1000;
  Alcotest.(check int) "none never spends" 0 (Guard.sat_spent Guard.none);
  Alcotest.(check bool) "none never exhausts" false
    (Guard.sat_exhausted Guard.none)

let test_cumulative_sat_budget_solver () =
  quiesce ();
  (* An exhausted budget makes [solve_limited] return [None] without
     touching the solver, exactly like an exhausted per-query cap. *)
  let t =
    Guard.create
      { Guard.Budget.bdd_node_ceiling = 0; sat_conflict_ceiling = 0;
        sat_conflict_budget = 5 }
  in
  let s = Sat.Solver.create () in
  Sat.Solver.add_clause s [ 1; 2 ];
  Sat.Solver.add_clause s [ -1; 2 ];
  Alcotest.(check bool) "first query answers" true
    (Sat.Solver.solve_limited ~guard:t ~conflict_limit:0 s
    = Some Sat.Solver.Sat);
  (* Drain the budget by hand (the easy queries above conflict little). *)
  Guard.sat_spend t ~conflicts:5;
  Alcotest.(check bool) "exhausted query yields no verdict" true
    (Sat.Solver.solve_limited ~guard:t ~conflict_limit:0 s = None);
  Alcotest.(check bool) "unguarded solver still answers" true
    (Sat.Solver.solve_limited ~conflict_limit:0 s = Some Sat.Solver.Sat)

let test_divide_splits_sat_budget () =
  quiesce ();
  let t =
    Guard.create
      { Guard.Budget.bdd_node_ceiling = 0; sat_conflict_ceiling = 0;
        sat_conflict_budget = 10 }
  in
  Guard.sat_spend t ~conflicts:4;
  let parts = Guard.divide t 3 in
  Alcotest.(check int) "shares sum to the whole budget" 10
    (List.fold_left (fun acc p -> acc + Guard.sat_limit p ~requested:0) 0 parts);
  List.iter
    (fun p ->
      Alcotest.(check int) "shares start unspent" 0 (Guard.sat_spent p))
    parts;
  (* Unlimited budgets divide into unlimited shares. *)
  List.iter
    (fun p ->
      Alcotest.(check bool) "unlimited share" true
        (Guard.sat_limit p ~requested:0 = 0 || Guard.sat_limit p ~requested:0 > 1000))
    (Guard.divide Guard.none 4)

let test_bdd_real_ceiling () =
  quiesce ();
  (* A genuinely exhausted node budget raises a non-injected Blowup
     from the allocation point, with no injection armed at all. *)
  let guard =
    Guard.create
      { Guard.Budget.bdd_node_ceiling = 40; sat_conflict_ceiling = 0; sat_conflict_budget = 0 }
  in
  let man = Bdd.create ~guard () in
  let blown =
    try
      let acc = ref (Bdd.btrue man) in
      for i = 0 to 30 do
        acc := Bdd.bxor man !acc (Bdd.var man i)
      done;
      false
    with
    | Guard.Blowup { resource = Guard.Bdd_nodes; injected = false; _ } -> true
  in
  Alcotest.(check bool) "ceiling raises typed Blowup" true blown

let test_sat_injected_exhaustion () =
  quiesce ();
  let s = Sat.Solver.create () in
  Sat.Solver.add_clause s [ 1; 2 ];
  Sat.Solver.add_clause s [ -1; 2 ];
  let guard = Guard.create Guard.Budget.default in
  with_inject
    [ { Guard.Inject.fault = Guard.Inject.Sat_exhaust; at = 1; repeat = false;
        site = None } ]
    (fun () ->
      Alcotest.(check bool) "injected call exhausts" true
        (Sat.Solver.solve_limited ~guard ~conflict_limit:0 s = None);
      Alcotest.(check bool) "next call answers" true
        (Sat.Solver.solve_limited ~guard ~conflict_limit:0 s
        = Some Sat.Solver.Sat);
      Alcotest.(check bool) "unguarded call unaffected" true
        (Sat.Solver.solve_limited ~conflict_limit:0 s = Some Sat.Solver.Sat))

(* ------------------------------------------------------------------ *)
(* Degradation ladder, rung by rung                                    *)
(* ------------------------------------------------------------------ *)

(* Single-shot BDD fault, approximate entry rung (the default): every
   fire lands either on the ladder's approx→shrink descent or, for a
   job whose decomposition stayed under the trigger count, during
   reconstruction — and nowhere else. *)
let test_rung_shrink () =
  quiesce ();
  let g = Circuits.Adders.ripple_carry 8 in
  let _, c = counters_of_run "bdd@100" g in
  let injected = c "guard.injected.bdd_blowup" in
  Alcotest.(check bool) "fault actually fired" true (injected > 0);
  Alcotest.(check int) "every fire is a shrink or a reconstruct fallback"
    injected
    (c "guard.rung.shrink_window" + c "guard.reconstruct_fallbacks");
  Alcotest.(check int) "no approx rung from approx entry" 0
    (c "guard.rung.approx_spcf");
  Alcotest.(check int) "single-shot never reaches skip" 0
    (c "guard.rung.skip_output")

(* Single-shot BDD fault with the exact-SPCF entry rung: first (and
   only) fire per job lands on exact→approx. *)
let test_rung_exact_to_approx () =
  quiesce ();
  let g = Circuits.Adders.ripple_carry 4 in
  let options =
    { options with Lookahead.Driver.use_exact_spcf = true }
  in
  let _, c = counters_of_run ~options "bdd@25" g in
  let injected = c "guard.injected.bdd_blowup" in
  Alcotest.(check bool) "fault actually fired" true (injected > 0);
  Alcotest.(check int) "every fire is exact→approx or a late fallback"
    injected
    (c "guard.rung.approx_spcf" + c "guard.reconstruct_fallbacks");
  Alcotest.(check int) "shrink needs a second fire" 0
    (c "guard.rung.shrink_window");
  Alcotest.(check int) "skip needs a third fire" 0
    (c "guard.rung.skip_output")

(* Repeating BDD fault: jobs descend the whole ladder to the terminal
   skip rung and the run still completes, equivalent. *)
let test_rung_skip () =
  quiesce ();
  let g = Circuits.Adders.ripple_carry 16 in
  let _, c = counters_of_run "bdd@60:r" g in
  Alcotest.(check bool) "shrink rung recorded" true
    (c "guard.rung.shrink_window" > 0);
  Alcotest.(check bool) "terminal skip rung recorded" true
    (c "guard.rung.skip_output" > 0);
  Alcotest.(check bool) "skips cannot outnumber shrinks" true
    (c "guard.rung.skip_output" <= c "guard.rung.shrink_window")

(* Injected deadline expiry jumps straight to the terminal rung; the
   skipped outputs fall back to their pre-edit cones (that is what the
   equivalence check in [counters_of_run] pins down). *)
let test_rung_deadline_skip () =
  quiesce ();
  let g = Circuits.Adders.ripple_carry 8 in
  let _, c = counters_of_run "deadline@5" g in
  let injected = c "guard.injected.deadline" in
  Alcotest.(check bool) "fault actually fired" true (injected > 0);
  Alcotest.(check int) "every expiry is a skip" injected
    (c "guard.rung.skip_output");
  Alcotest.(check int) "no real deadline cut recorded" 0
    (c "guard.deadline_cuts")

(* Regression (PR 5): a deadline expiring between secondary
   simplification and reconstruction used to be able to hand a
   partially rewired residue onward. The site-filtered rule fires at
   the second decompose-loop check — i.e. after one full level of
   window + secondary editing, before reconstruction — and the output
   must come out restored to its pre-edit cone. *)
let test_deadline_mid_decompose_restores () =
  quiesce ();
  let g = Circuits.Adders.ripple_carry 8 in
  let _, c = counters_of_run "deadline@2:driver.decompose" g in
  Alcotest.(check bool) "mid-decompose expiry fired" true
    (c "guard.injected.deadline" > 0);
  Alcotest.(check int) "abandoned outputs were skipped whole"
    (c "guard.injected.deadline")
    (c "guard.rung.skip_output")

(* SAT budget exhaustion: the sweep merges less and the final check
   falls back to unbounded queries; verdicts are unaffected. *)
let test_sat_exhaustion_run () =
  quiesce ();
  let g = Circuits.Adders.ripple_carry 8 in
  let _, c = counters_of_run "sat@1:r" g in
  Alcotest.(check bool) "exhaustions recorded" true
    (c "guard.injected.sat_exhaust" > 0);
  Alcotest.(check int) "no ladder descent from sat faults" 0
    (c "guard.rung.skip_output")

(* A real (non-injected) wall-clock expiry mid-run: completion and
   equivalence still hold; counters are scheduling-dependent, so they
   are not asserted. *)
let test_real_deadline_cut () =
  quiesce ();
  let g = Circuits.Adders.ripple_carry 16 in
  let options =
    { options with Lookahead.Driver.time_limit_s = 0.02 }
  in
  let o = Lookahead.Driver.optimize ~options g in
  Alcotest.(check bool) "cut run stays CEC-equivalent" true
    (Aig.Cec.equivalent g o)

(* Mfs degrades whole: a blowup mid-pass returns the input unchanged. *)
let test_mfs_degrades () =
  quiesce ();
  Obs.reset ();
  Obs.enable ();
  let g = Circuits.Adders.ripple_carry 8 in
  let o =
    with_inject
      [ { Guard.Inject.fault = Guard.Inject.Bdd_blowup; at = 10; repeat = true;
          site = None } ]
      (fun () -> Lookahead.Mfs.run g)
  in
  let snap = Obs.snapshot () in
  Obs.disable ();
  Alcotest.(check int) "pass degraded exactly once" 1
    (Obs.counter_value snap "guard.mfs_degraded");
  Alcotest.(check bool) "input returned unchanged" true (o == g)

(* ------------------------------------------------------------------ *)
(* Fast-subset circuit: all three fault classes in one governed run    *)
(* ------------------------------------------------------------------ *)

let test_c432_all_faults () =
  quiesce ();
  let g = Circuits.Suite.build "C432" in
  (* One governed run per fault class — a combined spec would let the
     deadline rule kill each job before the BDD rule's threshold. The
     real limit only bounds the test; injection drives the faults. *)
  let options =
    { options with Lookahead.Driver.time_limit_s = 10.0 }
  in
  List.iter
    (fun (spec, counter) ->
      let _, c = counters_of_run ~options spec g in
      Alcotest.(check bool) (spec ^ " fired") true (c counter > 0))
    [
      ("bdd@150:r", "guard.injected.bdd_blowup");
      ("sat@1:r", "guard.injected.sat_exhaust");
      ("deadline@5", "guard.injected.deadline");
    ]

(* ------------------------------------------------------------------ *)
(* Bit-identity across -j with faults enabled                          *)
(* ------------------------------------------------------------------ *)

let test_jobs_identity_with_faults () =
  quiesce ();
  let g = Circuits.Adders.ripple_carry 16 in
  let rules =
    Result.get_ok (Guard.Inject.of_string "bdd@60:r,deadline@9")
  in
  let run j =
    Par.set_default_jobs j;
    Obs.reset ();
    Obs.enable ();
    let o =
      with_inject rules (fun () -> Lookahead.Driver.optimize ~options g)
    in
    let snap = Obs.snapshot () in
    Obs.disable ();
    (Aig.Io.blif_to_string o, Obs.det_subtree (Obs.report_json snap))
  in
  let blif1, det1 = run 1 in
  (match Obs.Json.member "counters" det1 with
  | Some (Obs.Json.Obj kvs) ->
    Alcotest.(check bool) "faulted run recorded degradations" true
      (List.exists
         (fun (k, v) ->
           String.length k >= 5
           && String.sub k 0 5 = "guard"
           && v <> Obs.Json.Int 0)
         kvs)
  | _ -> Alcotest.fail "det counters missing");
  let blif4, det4 = run 4 in
  Par.set_default_jobs 0;
  Alcotest.(check bool) "faulted circuit identical at -j 4" true
    (String.equal blif1 blif4);
  Alcotest.(check bool) "faulted det subtree identical at -j 4" true
    (Obs.Json.equal det1 det4);
  quiesce ()

let () =
  Alcotest.run "guard"
    [
      ( "inject spec",
        [
          Alcotest.test_case "parse / print roundtrip" `Quick
            test_spec_roundtrip;
          Alcotest.test_case "seeded rules deterministic" `Quick
            test_spec_seeded;
        ] );
      ( "budget hooks",
        [
          Alcotest.test_case "ceilings and caps" `Quick test_budget_limits;
          Alcotest.test_case "divide splits node budget" `Quick test_divide;
          Alcotest.test_case "divide floor-1 over-commit detected" `Quick
            test_divide_overcommit;
          Alcotest.test_case "cumulative sat budget" `Quick
            test_cumulative_sat_budget;
          Alcotest.test_case "cumulative budget gates the solver" `Quick
            test_cumulative_sat_budget_solver;
          Alcotest.test_case "divide splits sat budget" `Quick
            test_divide_splits_sat_budget;
          Alcotest.test_case "real bdd ceiling blows up typed" `Quick
            test_bdd_real_ceiling;
          Alcotest.test_case "injected sat exhaustion" `Quick
            test_sat_injected_exhaustion;
        ] );
      ( "deadline",
        [ Alcotest.test_case "monotonic deadline" `Quick test_deadline ] );
      ( "degradation ladder",
        [
          Alcotest.test_case "bdd fault: approx→shrink rung" `Quick
            test_rung_shrink;
          Alcotest.test_case "bdd fault: exact→approx rung" `Quick
            test_rung_exact_to_approx;
          Alcotest.test_case "repeated bdd fault: terminal skip rung" `Quick
            test_rung_skip;
          Alcotest.test_case "injected deadline: skip rung" `Quick
            test_rung_deadline_skip;
          Alcotest.test_case "deadline mid-decompose restores cone" `Quick
            test_deadline_mid_decompose_restores;
          Alcotest.test_case "sat exhaustion run" `Quick
            test_sat_exhaustion_run;
          Alcotest.test_case "real deadline cut stays sound" `Quick
            test_real_deadline_cut;
          Alcotest.test_case "mfs degrades whole" `Quick test_mfs_degrades;
        ] );
      ( "fast subset",
        [
          Alcotest.test_case "C432: all fault classes, one run" `Slow
            test_c432_all_faults;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "-j identity with faults enabled" `Quick
            test_jobs_identity_with_faults;
        ] );
    ]
