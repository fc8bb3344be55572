(* Benchmark-side spans around each call into a program layer. Spans
   live in memory until the run ends; when tracing is off [span] is a
   plain call. *)

type span = {
  name : string;
  job : string;  (* the cell or job the span worked for *)
  parent : int;  (* index of the enclosing span, -1 at top level *)
  start : float;
  mutable stop : float;
}

let on = ref false
let spans : span list ref = ref []
let count = ref 0
let stack : int list ref = ref []
let job = ref ""

let now = Obs.Clock.now_s

let clear () =
  spans := [];
  count := 0;
  stack := []

let span name f =
  if not !on then f ()
  else begin
    let id = !count in
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = { name; job = !job; parent; start = now (); stop = 0. } in
    spans := s :: !spans;
    incr count;
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- now ();
        stack := List.tl !stack)
      f
  end

(* Total seconds per span name. *)
let totals spans =
  let h = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      Hashtbl.replace h s.name
        (d +. Option.value ~default:0. (Hashtbl.find_opt h s.name)))
    spans;
  h

let total name = Option.value ~default:0. (Hashtbl.find_opt (totals !spans) name)

(* Seconds covered by top-level spans (they never overlap: one thread). *)
let top_level spans =
  List.fold_left
    (fun acc s -> if s.parent < 0 then acc +. (s.stop -. s.start) else acc)
    0. spans

(* The spans as Chrome trace events (microseconds), one track, each
   event naming its job and its parent span. *)
let to_json spans =
  let events = List.rev spans in
  let t0 = List.fold_left (fun m s -> min m s.start) infinity events in
  let us t = Obs.Json.Float ((t -. t0) *. 1e6) in
  Obs.Json.List
    (List.mapi
       (fun i s ->
         Obs.Json.Obj
           [ ("name", String s.name); ("ph", String "X"); ("ts", us s.start);
             ("dur", Float ((s.stop -. s.start) *. 1e6)); ("pid", Int 1);
             ("tid", Int 1);
             ( "args",
               Obj [ ("id", Int i); ("parent", Int s.parent);
                     ("job", String s.job) ] ) ])
       events)
