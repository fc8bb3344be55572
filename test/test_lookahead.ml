(* Tests for the lookahead synthesis core: Simplify/Reduce soundness,
   window semantics, secondary simplification, reconstruction validity,
   and end-to-end optimization. *)

module Tt = Logic.Tt

let qtest ?(count = 20) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let gen_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100000)

let random_aig ?(inputs = 6) ?(gates = 40) ?(outputs = 2) seed =
  let st = Random.State.make [| seed; inputs; gates |] in
  let g = Aig.create () in
  let ins = Array.init inputs (fun _ -> Aig.add_input g) in
  let pool = ref (Array.to_list ins) in
  let pick () =
    let l = List.nth !pool (Random.State.int st (List.length !pool)) in
    if Random.State.bool st then Aig.bnot l else l
  in
  for _ = 1 to gates do
    pool := Aig.band g (pick ()) (pick ()) :: !pool
  done;
  for i = 0 to outputs - 1 do
    Aig.add_output g (Printf.sprintf "y%d" i) (pick ())
  done;
  g

(* Run one primary simplification pass on the deepest output of a random
   circuit and return the machinery's pieces for property checks. *)
let setup_decomposition seed =
  let g = Aig.Balance.run (random_aig seed) in
  let net = Network.of_aig ~k:5 g in
  let levels = Network.Levels.compute net in
  let outs = Network.outputs net in
  let o =
    List.fold_left
      (fun acc (o : Network.output) ->
        match acc with
        | Some b when levels.(b.Network.node) >= levels.(o.Network.node) -> acc
        | _ -> Some o)
      None outs
  in
  match o with
  | None -> None
  | Some o when levels.(o.Network.node) <= 1 -> None
  | Some o ->
    let man = Bdd.create () in
    let globals = Network.Globals.of_net man net in
    let delta = levels.(o.Network.node) in
    let spcf =
      Timing.Spcf.approx man net globals ~levels ~out:o ~delta ()
    in
    if Bdd.is_false man spcf then None
    else begin
      let spcf_count = Bdd.satcount man ~nvars:6 spcf in
      let primary = Network.copy net in
      let analysis = Network.Analysis.create primary in
      let outcome =
        Lookahead.Reduce.run man ~analysis ~globals ~spcf ~spcf_count primary
          ~out:o ~target:delta
      in
      Some (g, net, primary, o, man, globals, outcome)
    end

(* The heart of the soundness argument: y0 must equal y on the window. *)
let prop_primary_sound =
  qtest ~count:60 "y0 agrees with y on the window" gen_seed (fun seed ->
      match setup_decomposition seed with
      | None -> true
      | Some (_, net, primary, o, man, globals, outcome) ->
        if outcome.Lookahead.Reduce.marked = [] then true
        else begin
          let sigma =
            List.fold_left
              (fun s (id, w) ->
                Bdd.band man s
                  (Network.Globals.tt_image man globals net id w))
              (Bdd.btrue man) outcome.Lookahead.Reduce.marked
          in
          (* Check pointwise over the 64 input minterms. *)
          List.for_all
            (fun m ->
              let bits = Array.init 6 (fun i -> (m lsr i) land 1 = 1) in
              let in_window =
                Bdd.is_true man
                  (List.fold_left
                     (fun acc i -> Bdd.restrict man acc i bits.(i))
                     sigma
                     (List.init 6 Fun.id))
              in
              (not in_window)
              ||
              let v = Network.eval_nodes net bits in
              let v' = Network.eval_nodes primary bits in
              v.(o.Network.node) = v'.(o.Network.node))
            (List.init 64 Fun.id)
        end)

let prop_secondary_sound =
  qtest ~count:60 "y1 agrees with y off the window" gen_seed (fun seed ->
      match setup_decomposition seed with
      | None -> true
      | Some (_, net, _, o, man, globals, outcome) ->
        if outcome.Lookahead.Reduce.marked = [] then true
        else begin
          let sigma =
            List.fold_left
              (fun s (id, w) ->
                Bdd.band man s
                  (Network.Globals.tt_image man globals net id w))
              (Bdd.btrue man) outcome.Lookahead.Reduce.marked
          in
          let care = Bdd.bnot man sigma in
          let secondary = Network.copy net in
          let sec_analysis = Network.Analysis.create secondary in
          let (_ : int list) =
            Lookahead.Secondary.run man ~globals ~care secondary
              ~analysis:sec_analysis ~out:o
          in
          List.for_all
            (fun m ->
              let bits = Array.init 6 (fun i -> (m lsr i) land 1 = 1) in
              let in_care =
                Bdd.is_true man
                  (List.fold_left
                     (fun acc i -> Bdd.restrict man acc i bits.(i))
                     care
                     (List.init 6 Fun.id))
              in
              (not in_care)
              ||
              let v = Network.eval_nodes net bits in
              let v' = Network.eval_nodes secondary bits in
              v.(o.Network.node) = v'.(o.Network.node))
            (List.init 64 Fun.id)
        end)

let prop_simplify_reduces_level =
  qtest ~count:60 "simplify strictly reduces the node level" gen_seed
    (fun seed ->
      match setup_decomposition seed with
      | None -> true
      | Some (_, net, _, _, man, globals, _) ->
        let levels = Network.Levels.compute net in
        let spcf = Bdd.btrue man in
        List.for_all
          (fun id ->
            Network.is_input net id
            ||
            let r =
              Lookahead.Simplify.run man ~globals ~spcf ~spcf_count:64.0 net
                ~levels id
            in
            (not r.Lookahead.Simplify.changed)
            ||
            let saved = Network.node net id in
            Network.set_func net id r.Lookahead.Simplify.func;
            let l' = Network.Levels.node_level net ~levels id in
            Network.set_func net id saved.Network.func;
            l' < Network.Levels.node_level net ~levels id)
          (Network.topo_order net))

let prop_window_excludes_disagreement =
  qtest ~count:60 "window never contains changed minterms" gen_seed
    (fun seed ->
      match setup_decomposition seed with
      | None -> true
      | Some (_, net, primary, _, _, _, outcome) ->
        List.for_all
          (fun (id, w) ->
            let orig = (Network.node net id).Network.func in
            let simplified = (Network.node primary id).Network.func in
            (* window => orig == simplified *)
            Tt.is_const_false
              (Tt.land_ w (Tt.lxor_ orig simplified)))
          outcome.Lookahead.Reduce.marked)

(* --- end-to-end ----------------------------------------------------------- *)

let prop_optimize_equivalent =
  qtest ~count:15 "optimize preserves function (random logic)" gen_seed
    (fun seed ->
      let g = random_aig ~gates:30 seed in
      (* optimize asserts CEC internally; reaching here means it passed. *)
      let opt = Lookahead.optimize g in
      Aig.depth opt <= max 1 (Aig.depth g))

let test_optimize_adders () =
  (* Table 1's headline: the lookahead flow turns ripple-carry adders into
     logarithmic-depth structures. *)
  let rca = Circuits.Adders.ripple_carry 8 in
  let opt, stats = Lookahead.optimize_with_stats rca in
  Alcotest.(check bool) "depth at most 10" true (Aig.depth opt <= 10);
  Alcotest.(check bool) "stats consistent" true
    (stats.Lookahead.Driver.final_depth = Aig.depth opt);
  Alcotest.(check bool) "still an adder" true
    (Aig.Cec.equivalent rca opt)

let test_golden_adders () =
  (* Bit-identity pin: at -j 1 with no time budget the flow is fully
     deterministic, so the optimized adders must land on exactly these
     depth/size pairs. Any analysis "optimization" that changes a single
     acceptance decision shows up here before it shows up in the paper
     tables. *)
  Par.set_default_jobs 1;
  Fun.protect
    ~finally:(fun () -> Par.set_default_jobs 0)
    (fun () ->
      let golden =
        [ (2, (5, 19)); (3, (7, 32)); (4, (7, 41)); (6, (9, 78)); (8, (9, 274)) ]
      in
      List.iter
        (fun (n, (depth, ands)) ->
          let g = Circuits.Adders.ripple_carry n in
          let o =
            Lookahead.optimize
              ~options:
                { Lookahead.Driver.default with time_limit_s = infinity }
              g
          in
          Alcotest.(check (pair int int))
            (Printf.sprintf "adder-%d (depth, ands)" n)
            (depth, ands)
            (Aig.depth o, Aig.num_reachable_ands o))
        golden)

let test_optimize_quickstart_chain () =
  (* The serial token chain of the quickstart example must collapse. *)
  let g = Aig.create () in
  let r = Array.init 8 (fun _ -> Aig.add_input g) in
  let p = Array.init 8 (fun _ -> Aig.add_input g) in
  let token = ref (Aig.band g r.(0) p.(0)) in
  for i = 1 to 7 do
    token := Aig.bor g r.(i) (Aig.band g p.(i) !token)
  done;
  Aig.add_output g "t" !token;
  let opt = Lookahead.optimize g in
  Alcotest.(check bool)
    (Printf.sprintf "chain depth %d -> %d halves" (Aig.depth g) (Aig.depth opt))
    true
    (Aig.depth opt * 2 <= Aig.depth g)

let prop_mfs_equivalent =
  qtest ~count:20 "mfs preserves function" gen_seed (fun seed ->
      let g = random_aig ~gates:30 seed in
      (* run asserts internal equivalence; also check size never grows
         unreasonably. *)
      let o = Lookahead.Mfs.run g in
      Aig.num_reachable_ands o <= 2 * max 1 (Aig.num_reachable_ands g))

let test_mfs_removes_unobservable () =
  (* y = (a & b) | (a & ~b & c & ~c) : the second branch is vacuous and
     an observability-aware pass must fold it away. *)
  let g = Aig.create () in
  let a = Aig.add_input g and b = Aig.add_input g and c = Aig.add_input g in
  let dead = Aig.band g (Aig.band g a (Aig.bnot b)) (Aig.band g c (Aig.bnot c)) in
  Aig.add_output g "y" (Aig.bor g (Aig.band g a b) dead);
  let o = Lookahead.Mfs.run g in
  Alcotest.(check bool) "equivalent" true (Aig.Cec.equivalent g o);
  Alcotest.(check bool) "only the live AND remains" true (Aig.num_reachable_ands o <= 1)

let test_optimize_idempotent_on_shallow () =
  let g = Circuits.Adders.carry_lookahead 4 in
  let opt = Lookahead.optimize g in
  Alcotest.(check bool) "no depth regression" true (Aig.depth opt <= Aig.depth g)

(* --- local don't-cares ----------------------------------------------------- *)

(* The full cube of local minterm [m] over [k] fanin positions. *)
let minterm_cube k m =
  Logic.Cube.of_literals (List.init k (fun i -> (i, (m lsr i) land 1 = 1)))

(* The pruned depth-first walk must mark exactly the minterms the
   one-product-per-minterm reference marks, for every node with up to 10
   fanins and care sets ranging from false to true. *)
let prop_local_dc_reference =
  qtest ~count:30 "local_dc = per-minterm reference" gen_seed (fun seed ->
      let st = Random.State.make [| seed |] in
      let inputs = 12 in
      let g = random_aig ~inputs ~gates:160 ~outputs:8 seed in
      let net = Network.of_aig ~k:(4 + Random.State.int st 7) g in
      let man = Bdd.create () in
      let globals = Network.Globals.of_net man net in
      let ids = Network.topo_order net in
      let random_global () =
        globals.(List.nth ids (Random.State.int st (List.length ids)))
      in
      let cares =
        [ Bdd.btrue man;
          Bdd.bfalse man;
          Bdd.apply_tt man (Tt.random st inputs)
            (Array.init inputs (Bdd.var man));
          random_global ();
          Bdd.bnot man (random_global ());
          Bdd.bor man (random_global ()) (random_global ()) ]
      in
      List.for_all
        (fun id ->
          Network.is_input net id
          ||
          let k = Array.length (Network.node net id).Network.fanins in
          k > 10
          || List.for_all
               (fun care ->
                 let reference =
                   Tt.of_fun k (fun m ->
                       Bdd.is_false man
                         (Bdd.band man
                            (Network.Globals.cube_image man globals net id
                               (minterm_cube k m))
                            care))
                 in
                 Tt.equal reference
                   (Network.Globals.local_dc man globals net id ~care))
               cares)
        ids)

(* --- tt_image memoization -------------------------------------------------- *)

let test_tt_image_memoized () =
  (* A full driver run on the 8-bit ripple-carry adder exercises the
     (node, window) image memo throughout decomposition; the result must
     still be the correct circuit. *)
  let rca = Circuits.Adders.ripple_carry 8 in
  let opt = Lookahead.optimize rca in
  Alcotest.(check bool) "driver run with memo is sound" true
    (Aig.Cec.equivalent rca opt);
  (* Cached vs uncached image values on the same network: the memoized
     tt_image must match a reference computed minterm by minterm, stay
     stable across repeated queries, and survive a cache flush. *)
  let net = Network.of_aig ~k:6 rca in
  let man = Bdd.create () in
  let globals = Network.Globals.of_net man net in
  let st = Random.State.make [| 42 |] in
  List.iter
    (fun id ->
      if not (Network.is_input net id) then begin
        let nd = Network.node net id in
        let k = Array.length nd.Network.fanins in
        if k > 0 && k <= 6 then begin
          let windows =
            [ nd.Network.func; Tt.random st k; Tt.random st k ]
          in
          List.iter
            (fun w ->
              let cached = Network.Globals.tt_image man globals net id w in
              let again = Network.Globals.tt_image man globals net id w in
              Alcotest.(check bool) "repeat query identical" true
                (Bdd.equal cached again);
              let uncached =
                List.fold_left
                  (fun acc m ->
                    Bdd.bor man acc
                      (Network.Globals.cube_image man globals net id
                         (minterm_cube k m)))
                  (Bdd.bfalse man) (Tt.minterms w)
              in
              Alcotest.(check bool) "cached = uncached reference" true
                (Bdd.equal cached uncached);
              Bdd.clear_caches man;
              let fresh = Network.Globals.tt_image man globals net id w in
              Alcotest.(check bool) "identical after cache flush" true
                (Bdd.equal cached fresh))
            windows
        end
      end)
    (Network.topo_order net)

let () =
  Alcotest.run "lookahead"
    [
      ( "soundness",
        [
          prop_primary_sound;
          prop_secondary_sound;
          prop_simplify_reduces_level;
          prop_window_excludes_disagreement;
        ] );
      ( "end-to-end",
        [
          prop_optimize_equivalent;
          Alcotest.test_case "adders" `Slow test_optimize_adders;
          Alcotest.test_case "golden adders (-j 1)" `Slow test_golden_adders;
          Alcotest.test_case "token chain" `Quick test_optimize_quickstart_chain;
          Alcotest.test_case "shallow input" `Quick test_optimize_idempotent_on_shallow;
        ] );
      ( "mfs",
        [
          prop_mfs_equivalent;
          Alcotest.test_case "unobservable logic" `Quick test_mfs_removes_unobservable;
        ] );
      ("local-dc", [ prop_local_dc_reference ]);
      ( "globals-memo",
        [ Alcotest.test_case "tt_image memoization" `Slow test_tt_image_memoized ] );
    ]
