(* Batch workloads: each cell runs one optimizer on one circuit, then
   maps the result, times it with STA and estimates its power: the
   paper's Table 2 flow, at [-j 1] with the anytime deadline off.

   Every cell runs in a child forked from a parent that has never run
   the optimizer, so each cell starts as cold as one [lookahead_opt opt]
   process: process-level memo tables (cover minimization, the mapper's
   match table) start empty, and the child's GC top heap is the cell's
   peak heap. The child also runs the benchmark's own equivalence check
   after its timed part, when asked to. *)

type src = Built of Aig.t | Text of string
type cell = { label : string; tool : string; src : src }

let options = { Lookahead.Driver.default with time_limit_s = infinity }

let optimizer tool g =
  match tool with
  | "lookahead" ->
    Tracer.span "core.optimize" (fun () -> Lookahead.optimize ~options g)
  | name -> (
    match Baselines.by_name name with
    | Some f -> Tracer.span ("baselines." ^ name) (fun () -> f g)
    | None -> invalid_arg ("unknown tool " ^ name))

(* The timed part of one cell. *)
let run_cell c =
  let g =
    match c.src with
    | Built g -> g
    | Text t -> Tracer.span "aig.io.parse" (fun () -> Aig.Io.read_blif t)
  in
  let o = optimizer c.tool g in
  let nl = Tracer.span "techmap.map" (fun () -> Techmap.Mapper.map o) in
  let sta = Tracer.span "techmap.sta" (fun () -> Techmap.Sta.analyze nl) in
  let power = Tracer.span "techmap.power" (fun () -> Techmap.Power.dynamic_mw nl) in
  (g, o, sta.Techmap.Sta.delay, power)

(* What a child sends back. *)
type reply = {
  job : (Job.t, string) result;
  check : string option;  (* equivalence failure, if checked and failed *)
  check_s : float;
  spans : Tracer.span list;
  report : Obs.Json.t;  (* [Null] untraced *)
  minor : int;
  major : int;
  top_heap_words : int;
}

let child ~traced ~check ~seed c =
  Tracer.clear ();
  Tracer.on := traced;
  Tracer.job := c.label;
  if traced then begin
    Obs.enable ();
    Obs.reset ()
  end;
  let gc0 = Gc.quick_stat () in
  let t0 = Tracer.now () in
  let r = try Ok (run_cell c) with e -> Error (Printexc.to_string e) in
  let latency = Tracer.now () -. t0 in
  let gc1 = Gc.quick_stat () in
  let report =
    if traced then Obs.report_json (Obs.snapshot ()) else Obs.Json.Null
  in
  let spans = !Tracer.spans in
  Tracer.on := false;
  Obs.disable ();
  let job =
    Result.map
      (fun (_, output, delay_ps, power_mw) ->
        {
          Job.label = c.label;
          quality =
            {
              levels = Aig.depth output;
              gates = Aig.num_reachable_ands output;
              delay_ps;
              power_mw;
            };
          blif = Aig.Io.blif_to_string ~model:c.label output;
          det = Obs.det_subtree report;
          latency;
          wait_ms = 0.;
          run_ms = 0.;
        })
      r
  in
  let check, check_s =
    match r with
    | Ok (g, o, _, _) when check ->
      Tracer.clear ();
      Tracer.on := true;
      let v = Check.equivalent ~seed g o in
      Tracer.on := false;
      (v, Tracer.total "aig.cec.check")
    | _ -> (None, 0.)
  in
  {
    job;
    check;
    check_s;
    spans;
    report;
    minor = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major = gc1.Gc.major_collections - gc0.Gc.major_collections;
    top_heap_words = gc1.Gc.top_heap_words;
  }

let rec read_all fd buf chunk =
  match Unix.read fd chunk 0 (Bytes.length chunk) with
  | 0 -> Buffer.contents buf
  | n ->
    Buffer.add_subbytes buf chunk 0 n;
    read_all fd buf chunk
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_all fd buf chunk

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

(* Run [c] in a forked child and wait for it. *)
let in_child ~traced ~check ~seed c =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let reply = child ~traced ~check ~seed c in
    let data = Marshal.to_bytes reply [] in
    let rec write off =
      if off < Bytes.length data then
        write (off + Unix.write wr data off (Bytes.length data - off))
    in
    write 0;
    Unix._exit 0
  | pid -> (
    Unix.close wr;
    let data = read_all rd (Buffer.create 65536) (Bytes.create 65536) in
    Unix.close rd;
    match waitpid pid with
    | Unix.WEXITED 0 when data <> "" -> (Marshal.from_string data 0 : reply)
    | _ -> failwith (c.label ^ ": child died"))

(* One pass over [cells]. [check] asks every child to run the
   equivalence check too. Returns the pass, the failed checks, the
   seconds the checks took and the largest child top heap in words. *)
let run_pass ~traced ~check ~seed cells =
  let layers = Layers.create () in
  let replies =
    Array.mapi
      (fun i c ->
        match in_child ~traced ~check ~seed:(seed + i) c with
        | r -> r
        | exception Failure e ->
          {
            job = Error e;
            check = None;
            check_s = 0.;
            spans = [];
            report = Obs.Json.Null;
            minor = 0;
            major = 0;
            top_heap_words = 0;
          })
      cells
  in
  Array.iter (fun r -> if traced then Layers.add layers r.report) replies;
  let sum f = Array.fold_left (fun n r -> n + f r) 0 replies in
  let pass =
    {
      Job.traced;
      wall =
        Array.fold_left
          (fun t r -> match r.job with Ok j -> t +. j.Job.latency | Error _ -> t)
          0. replies;
      jobs = Array.map (fun r -> r.job) replies;
      layers;
      spans = List.concat_map (fun r -> r.spans) (List.rev (Array.to_list replies));
      parse_bytes =
        Array.fold_left
          (fun n c -> match c.src with Text t -> n + String.length t | Built _ -> n)
          0 cells;
      gc_minor = sum (fun r -> r.minor);
      gc_major = sum (fun r -> r.major);
    }
  in
  let failed_checks =
    Array.to_list
      (Array.mapi
         (fun i r -> Option.map (fun why -> cells.(i).label ^ ": " ^ why) r.check)
         replies)
    |> List.filter_map Fun.id
  in
  ( pass,
    failed_checks,
    Array.fold_left (fun t r -> t +. r.check_s) 0. replies,
    Array.fold_left (fun m r -> max m r.top_heap_words) 0 replies )
