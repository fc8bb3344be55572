(* The served workload: a [lookahead_serve] process and one client that
   keeps [window] jobs in flight on one connection (a closed loop: the
   next job is sent only when a result comes back). *)

type item = { label : string; source : Serve.Msg.source }

let window = 2

type server = { pid : int; socket : string }

let live : server list ref = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ()

let kill s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap s.pid;
  live := List.filter (fun x -> x.pid <> s.pid) !live;
  try Sys.remove s.socket with Sys_error _ -> ()

(* Whatever happens, no server outlives the benchmark. *)
let () = at_exit (fun () -> List.iter kill !live)

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error _ -> true

(* Start a server and block until it answers a [Stats] request. The
   server's own output goes to our stderr, never into the result line. *)
let start ~bin ~socket =
  (try Sys.remove socket with Sys_error _ -> ());
  let pid =
    Unix.create_process bin
      [| bin; "run"; "--socket"; socket; "-j"; "1"; "--queue"; "64" |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let s = { pid; socket } in
  live := s :: !live;
  let deadline = Tracer.now () +. 30. in
  let rec connect () =
    match Serve.Client.connect (`Unix socket) with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      if exited pid then failwith "lookahead_serve exited during start-up";
      if Tracer.now () > deadline then failwith "lookahead_serve did not start";
      Unix.sleepf 0.002;
      connect ()
  in
  let c = connect () in
  ignore (Serve.Client.stats c);
  (s, c)

let stop (s, c) =
  (try
     Serve.Client.shutdown c;
     Serve.Client.close c
   with _ -> Serve.Client.close c);
  let deadline = Tracer.now () +. 20. in
  let rec wait () =
    if not (exited s.pid) then
      if Tracer.now () > deadline then kill s
      else begin
        Unix.sleepf 0.005;
        wait ()
      end
  in
  wait ();
  live := List.filter (fun x -> x.pid <> s.pid) !live;
  try Sys.remove s.socket with Sys_error _ -> ()

let spec ~report source =
  {
    (Serve.Msg.submit_defaults ~source ~tool:"lookahead") with
    time_limit_s = Some 0.;
    want_blif = true;
    want_report = report;
  }

let job_of_result item latency (r : Serve.Msg.result) layers =
  match (r.state, r.metrics, r.blif) with
  | Serve.Msg.Done, Some m, Some blif when not r.degraded ->
    let det =
      match r.report with
      | Some report ->
        Layers.add layers report;
        Obs.det_subtree report
      | None -> Obs.Json.Null
    in
    Ok
      {
        Job.label = item.label;
        quality =
          {
            levels = m.Serve.Msg.levels;
            gates = m.gates;
            delay_ps = m.delay_ps;
            power_mw = m.power_mw;
          };
        blif;
        det;
        latency;
        wait_ms = r.wait_ms;
        run_ms = r.run_ms;
      }
  | Serve.Msg.Done, _, _ when r.degraded -> Error (item.label ^ ": degraded")
  | _ ->
    Error
      (Printf.sprintf "%s: %s %s" item.label
         (Serve.Msg.state_name r.state)
         (Option.value ~default:"" r.error))

(* One closed-loop pass over [items], sent in [order] (a permutation of
   their indices); jobs are reported in item order. With [report_last],
   the last job asks for its Obs report even untraced: its
   [gc.top_heap_words] gauge is the server's peak heap so far. Returns
   the pass and that gauge. *)
let run_pass ~traced ~report_last ~order c items =
  Tracer.clear ();
  Tracer.on := traced;
  let n = Array.length items in
  let layers = Layers.create () in
  let jobs = Array.make n (Error "no result") in
  let sent = Queue.create () and ids = Hashtbl.create n in
  let next = ref 0 and inflight = ref 0 and finished = ref 0 in
  let heap = ref 0. and gc_first = ref None and gc_last = ref (0., 0.) in
  let t0 = Tracer.now () in
  while !finished < n do
    while !inflight < window && !next < n do
      let i = order.(!next) in
      let report = traced || (report_last && !next = n - 1) in
      Tracer.job := items.(i).label;
      let t = Tracer.now () in
      Tracer.span "serve.send" (fun () ->
          Serve.Client.send c (Serve.Msg.Submit (spec ~report items.(i).source)));
      Queue.push (i, t) sent;
      incr next;
      incr inflight
    done;
    let complete i result =
      jobs.(i) <- result;
      decr inflight;
      incr finished
    in
    match Tracer.span "serve.recv" (fun () -> Serve.Client.recv c) with
    | Serve.Msg.Submitted { id; _ } -> Hashtbl.replace ids id (Queue.pop sent)
    | Serve.Msg.Error_reply { code; message } ->
      let i, _ = Queue.pop sent in
      complete i (Error (Printf.sprintf "%s: rejected %s %s" items.(i).label code message))
    | Serve.Msg.Result r ->
      let i, t = Hashtbl.find ids r.id in
      let latency = Tracer.now () -. t in
      Option.iter
        (fun report ->
          let g k =
            Option.value ~default:0.
              (Option.bind
                 (Option.bind (Obs.Json.member "runtime" report) (Obs.Json.member "gauges"))
                 (fun gs -> Option.bind (Obs.Json.member k gs) Layers.number))
          in
          heap := Float.max !heap (g "gc.top_heap_words");
          let gc = (g "gc.minor_collections", g "gc.major_collections") in
          if !gc_first = None then gc_first := Some gc;
          gc_last := gc)
        r.report;
      complete i (job_of_result items.(i) latency r layers)
    | Serve.Msg.Progress _ -> ()
    | _ -> failwith "unexpected response"
  done;
  let wall = Tracer.now () -. t0 in
  Tracer.on := false;
  let first_minor, first_major = Option.value ~default:!gc_last !gc_first in
  ( {
      Job.traced;
      wall;
      jobs;
      layers;
      spans = !Tracer.spans;
      parse_bytes = 0;
      gc_minor = int_of_float (fst !gc_last -. first_minor);
      gc_major = int_of_float (snd !gc_last -. first_major);
    },
    !heap )

(* The check pairs: the submitted source, built locally, against the
   returned BLIF, parsed by the benchmark. *)
let pairs items (p : Job.pass) =
  Array.mapi
    (fun i r ->
      match r with
      | Error _ -> None
      | Ok (j : Job.t) ->
        Some (Serve.Run.build_source items.(i).source, Aig.Io.read_blif j.blif))
    p.jobs
