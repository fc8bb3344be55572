(* What every workload reports per job and per pass, so the checks and
   the metrics are computed the same way for in-process cells and for
   jobs served over the socket. *)

(* The Table 2 columns of one optimized circuit. *)
type quality = { levels : int; gates : int; delay_ps : float; power_mw : float }

type t = {
  label : string;
  quality : quality;
  blif : string;  (* the optimized circuit, for the determinism check *)
  det : Obs.Json.t;  (* Det subtree of the job's Obs report; [Null] untraced *)
  latency : float;  (* seconds, as the benchmark sees it *)
  wait_ms : float;  (* server queue wait; 0 in process *)
  run_ms : float;  (* server execution time; 0 in process *)
}

type pass = {
  traced : bool;
  wall : float;  (* seconds to finish the whole input set *)
  jobs : (t, string) result array;  (* in input order *)
  layers : Layers.acc;  (* folded Obs reports; empty untraced *)
  spans : Tracer.span list;  (* benchmark spans, newest first *)
  parse_bytes : int;
  gc_minor : int;
  gc_major : int;
}
