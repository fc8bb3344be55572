(* All [Det]: one build/update per decompose step of a deterministic
   job, and the affected set depends only on the edit, not on which
   worker runs it. *)
let m_builds = Obs.counter "globals.builds"
let m_cluster_builds = Obs.counter "globals.cluster_builds"
let m_cluster_nodes = Obs.histogram "globals.cluster_build_nodes"
let m_updates = Obs.counter "globals.updates"
let m_recomputed = Obs.counter "globals.recomputed"
let m_reused = Obs.counter "globals.reused"
let m_dirty_region = Obs.histogram "globals.dirty_region"
let m_scratch_fallbacks = Obs.counter "globals.scratch_fallbacks"

(* Fill [globals] along [order] (any fanin-closed topological node
   sequence). The per-node deadline check is the cancellation point: a
   build over a wide cone is the longest uninterruptible stretch of a
   decompose job without it. *)
let build_into ~guard ~site man net globals order =
  List.iter
    (fun id ->
      Guard.check_deadline guard ~site;
      if Graph.is_input net id then
        globals.(id) <- Bdd.var man (Graph.input_index net id)
      else begin
        let nd = Graph.node net id in
        let args = Array.map (fun f -> globals.(f)) nd.Graph.fanins in
        globals.(id) <- Bdd.apply_tt man nd.Graph.func args
      end)
    order

let of_net ?(guard = Guard.none) man net =
  Obs.incr m_builds;
  let globals = Array.make (Graph.num_nodes net) (Bdd.bfalse man) in
  build_into ~guard ~site:"globals.of_net" man net globals
    (Graph.topo_order net);
  globals

let of_cluster ?(guard = Guard.none) man net ~nodes =
  Obs.incr m_cluster_builds;
  Obs.observe m_cluster_nodes (List.length nodes);
  let globals = Array.make (Graph.num_nodes net) (Bdd.bfalse man) in
  build_into ~guard ~site:"globals.of_cluster" man net globals nodes;
  globals

(* Incremental rebuild: only nodes whose cone contains an edit can have
   changed global functions, so recompute the transitive fanout of the
   dirty set and reuse every other entry verbatim. Within one manager
   the result is bit-identical to [of_net] — BDDs are hash-consed, so
   an unchanged function is the same edge whether reused or rebuilt. *)
let update ?(guard = Guard.none) ?member man globals net ~dirty ~fanouts =
  Obs.incr m_updates;
  let n = Graph.num_nodes net in
  assert (Array.length globals = n);
  let in_scope =
    match member with
    | None -> fun _ -> true
    | Some m ->
      assert (Array.length m = n);
      fun id -> m.(id)
  in
  let affected = Array.make n false in
  let rec mark id =
    if not affected.(id) then begin
      affected.(id) <- true;
      List.iter mark fanouts.(id)
    end
  in
  List.iter mark dirty;
  (* Dirty-fraction heuristic: when the transitive fanout covers most
     of the (in-scope) network, the per-node affected test buys nothing
     over a straight from-scratch pass — the same hash-consed edges
     come out either way, so only the bookkeeping differs. Rebuild
     everything in scope instead (the regression this fixes: dalu's
     near-global dirty regions made [update] slower than [of_net]). *)
  let scope_internal = ref 0 and affected_internal = ref 0 in
  for id = 0 to n - 1 do
    if in_scope id && not (Graph.is_input net id) then begin
      incr scope_internal;
      if affected.(id) then incr affected_internal
    end
  done;
  let rebuild_all = 2 * !affected_internal > !scope_internal in
  if rebuild_all then Obs.incr m_scratch_fallbacks;
  let fresh = Array.copy globals in
  let recomputed = ref 0 in
  for id = 0 to n - 1 do
    if
      in_scope id
      && (rebuild_all || affected.(id))
      && not (Graph.is_input net id)
    then begin
      Guard.check_deadline guard ~site:"globals.update";
      incr recomputed;
      let nd = Graph.node net id in
      let args = Array.map (fun f -> fresh.(f)) nd.Graph.fanins in
      fresh.(id) <- Bdd.apply_tt man nd.Graph.func args
    end
  done;
  Obs.add m_recomputed !recomputed;
  Obs.add m_reused (n - !recomputed);
  Obs.observe m_dirty_region !recomputed;
  fresh

let fanin_globals globals net id =
  let nd = Graph.node net id in
  Array.map (fun f -> globals.(f)) nd.Graph.fanins

let cube_image man globals net id cube =
  let args = fanin_globals globals net id in
  List.fold_left
    (fun acc (i, b) ->
      let gi = args.(i) in
      Bdd.band man acc (if b then gi else Bdd.bnot man gi))
    (Bdd.btrue man)
    (Logic.Cube.literals cube)

(* Depth-first over the fanins in index order: [prefix] is the image of
   the partial local minterm [m] fixing fanins [0 .. i-1]. The first
   prefix that misses [care] (an empty prefix included) makes all
   2^(k-i) completions don't-cares at once, and the care set is never
   conjoined, so the test allocates nothing. *)
let local_dc man globals net id ~care =
  let args = fanin_globals globals net id in
  let k = Array.length args in
  let dc = Array.make (1 lsl k) false in
  let rec walk i m prefix =
    if Bdd.disjoint man prefix care then
      for j = 0 to (1 lsl (k - i)) - 1 do
        dc.(m lor (j lsl i)) <- true
      done
    else if i < k then begin
      let gi = args.(i) in
      walk (i + 1) m (Bdd.band man prefix (Bdd.bnot man gi));
      walk (i + 1) (m lor (1 lsl i)) (Bdd.band man prefix gi)
    end
  in
  walk 0 0 (Bdd.btrue man);
  Logic.Tt.of_fun k (fun m -> dc.(m))

(* Memoized per (node, window): the fanin globals of [id] are stable BDD
   edges, so [Bdd.apply_tt]'s per-(tt, args) manager memo makes every
   repeated image query — sigma products rebuild the same windows in
   [Driver] and [Reconstruct] — a table hit. *)
let tt_image man globals net id tt =
  let args = fanin_globals globals net id in
  Bdd.apply_tt man tt args
