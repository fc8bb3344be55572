(* Seeded input generation. Every workload input that is not a fixed
   named circuit comes from here, and only from the workload seed. *)

(* splitmix64: a tiny, portable, well-mixed generator, so the same
   seed gives the same inputs on every OCaml version and platform. *)
type rng = { mutable s : int64 }

let rng seed = { s = Int64.of_int seed }

let next64 r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform in [0, n). *)
let int r n = Int64.to_int (Int64.unsigned_rem (next64 r) (Int64.of_int n))

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* A deep chain as BLIF text. The chain runs through blocks of [run]
   steps, each applying one operation in turn, AND, OR, AND-NOT, to the
   running value and a fresh primary input. Every [tap]-th node of an
   AND or OR block is an anchor and feeds a reconvergent tap, an output
   [n_i op n_j] with an earlier anchor [n_j] of the same block that the
   seed picks. Each tap is equivalent to [n_i], but only a SAT proof
   shows it: the taps add sweeping and equivalence-checking work that
   depends on the seed, while the anchors, and so the structure the
   optimizer balances, stay the same for every seed. The other outputs
   are the chain end and a node every quarter, all deep enough that
   their support exceeds the driver's cone-input limit. *)
let deep_blif r ~name ~depth ~run ~tap =
  let node i = if i = 0 then "x0" else Printf.sprintf "n%d" i in
  let gates = Buffer.create (depth * 40) in
  let taps = ref [] in
  let table = function 0 -> "11 1\n" | 1 -> "1- 1\n-1 1\n" | _ -> "10 1\n" in
  for i = 1 to depth do
    let op = (i - 1) / run mod 3 in
    Printf.bprintf gates ".names %s x%d %s\n%s" (node (i - 1)) i (node i) (table op);
    let back = (i - 1) mod run in
    if op < 2 && back >= tap && back mod tap = 0 then begin
      let j = i - back + (tap * int r (back / tap)) in
      let t = Printf.sprintf "t%d_%d" i j in
      Printf.bprintf gates ".names %s %s %s\n%s" (node i) (node j) t (table op);
      taps := t :: !taps
    end
  done;
  let outs = List.map (fun k -> node (k * depth / 4)) [ 1; 2; 3; 4 ] @ List.rev !taps in
  let b = Buffer.create (Buffer.length gates + (depth * 8)) in
  Printf.bprintf b ".model %s\n.inputs %s\n.outputs %s\n" name
    (String.concat " " (List.init (depth + 1) (Printf.sprintf "x%d")))
    (String.concat " " (List.map (fun n -> "y_" ^ n) outs));
  Buffer.add_buffer b gates;
  List.iter (fun n -> Printf.bprintf b ".names %s y_%s\n1 1\n" n n) outs;
  Buffer.add_string b ".end\n";
  Buffer.contents b

(* The [deep-blif] input set: [count] chains, each [depth] steps deep. *)
let deep_blif_set r ~count ~depth =
  List.init count (fun k ->
      let name = Printf.sprintf "chain%d_%d" k depth in
      (name, deep_blif r ~name ~depth ~run:250 ~tap:16))

(* The [serve-closed] job mix: adders and a named circuit, plus small
   seeded chains. Each pass sends it in its own seeded order. *)
let serve_mix r =
  let adders =
    List.map
      (fun (kind, bits) ->
        (Printf.sprintf "%s%d" kind bits, Serve.Msg.Adder { kind; bits }))
      [ ("ripple", 8); ("cla", 8); ("select", 8); ("cla", 12); ("select", 12);
        ("cla", 16); ("select", 16) ]
  in
  let named = List.map (fun n -> (n, Serve.Msg.Named n)) [ "C880" ] in
  let chains =
    List.map
      (fun depth ->
        let name = Printf.sprintf "chain%d" depth in
        (name, Serve.Msg.Blif { name; text = deep_blif r ~name ~depth ~run:50 ~tap:8 }))
      [ 120; 150; 180; 210; 240; 270; 300; 330 ]
  in
  Array.of_list (adders @ named @ chains)

