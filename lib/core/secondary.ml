let run man ~globals ~care net ~analysis ~out =
  let oid = out.Network.node in
  let cone = Network.Analysis.cone analysis oid in
  (* Levels are deliberately read once, before any edit: each node is
     re-minimized against the level landscape of the unedited network
     (matching the from-scratch behaviour this pass always had). The
     copy decouples the snapshot from the analysis engine's in-place
     repair. *)
  let levels = Array.copy (Network.Analysis.levels analysis) in
  let edited = ref [] in
  List.iter
    (fun id ->
      if not (Network.is_input net id) then begin
        let nd = Network.node net id in
        let k = Array.length nd.Network.fanins in
        if k > 0 && k <= 10 then begin
          (* Local don't-cares: minterms of the node's input space whose
             image never intersects the care set. *)
          let dc = Network.Globals.local_dc man globals net id ~care in
          if not (Logic.Tt.is_const_false dc) then begin
            let on = nd.Network.func in
            let lower = Logic.Tt.land_ on (Logic.Tt.lnot dc) in
            let upper = Logic.Tt.lor_ on dc in
            let fanin_level i = levels.(nd.Network.fanins.(i)) in
            let depth_of sop = Network.Levels.sop_depth sop ~fanin_level in
            (* Pick the cheaper polarity of the minimized cover. *)
            let pos = Logic.Minimize.isop ~lower ~upper in
            let neg =
              Logic.Minimize.isop ~lower:(Logic.Tt.lnot upper)
                ~upper:(Logic.Tt.lnot lower)
            in
            let func =
              if depth_of pos <= depth_of neg then Logic.Sop.to_tt pos
              else Logic.Tt.lnot (Logic.Sop.to_tt neg)
            in
            if not (Logic.Tt.equal func nd.Network.func) then begin
              Network.set_func net id func;
              Network.Analysis.invalidate analysis id;
              edited := id :: !edited
            end
          end
        end
      end)
    cone;
  List.rev !edited
