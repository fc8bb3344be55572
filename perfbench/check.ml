(* The benchmark's own output check, independent of the optimizer's
   internal assert: a SAT equivalence check called by the benchmark,
   and seeded random-vector simulation, which shares nothing with the
   SAT path. Returns [None] when the circuits agree, else the reason. *)

(* Output words of a 64-way simulation. *)
let output_words g vec =
  let values = Aig.sim g vec in
  List.map
    (fun (_, l) ->
      let w = values.(Aig.node_of_lit l) in
      if Aig.is_complemented l then Int64.lognot w else w)
    (Aig.outputs g)

let simulate ~seed ~rounds a b =
  let n = Aig.num_inputs a in
  let r = Gen.rng seed in
  let rec go i =
    if i >= rounds then None
    else begin
      let vec = Array.init n (fun _ -> Gen.next64 r) in
      let ya = output_words a vec and yb = output_words b vec in
      if ya <> yb then Some (Printf.sprintf "simulation mismatch in round %d" i)
      else go (i + 1)
    end
  in
  go 0

let equivalent ~seed original optimized =
  if Aig.num_inputs original <> Aig.num_inputs optimized then
    Some "input count differs"
  else if List.length (Aig.outputs original)
          <> List.length (Aig.outputs optimized)
  then Some "output count differs"
  else
    match Tracer.span "aig.cec.check" (fun () -> Aig.Cec.check original optimized) with
    | Aig.Cec.Counterexample _ -> Some "CEC counterexample"
    | Aig.Cec.Equivalent -> simulate ~seed ~rounds:32 original optimized
