(** Reading and writing circuits (BLIF subset and ISCAS BENCH formats). *)

(** Write the graph as flat BLIF (two-input [.names] per AND gate,
    inverters as one-input [.names]). *)
val write_blif : ?model:string -> Format.formatter -> Graph.t -> unit

val blif_to_string : ?model:string -> Graph.t -> string

(** Parse a combinational BLIF subset: [.model], [.inputs], [.outputs],
    single-output [.names] with cube tables (on-set or off-set rows).
    Raises [Failure] on unsupported constructs ([.latch], multiple
    models), malformed lines, undriven signals and combinational
    cycles. *)
val read_blif : string -> Graph.t

(** Write in ISCAS-89 BENCH style using AND/NOT gates. *)
val write_bench : Format.formatter -> Graph.t -> unit

(** Parse BENCH: [INPUT], [OUTPUT], and gates
    AND/OR/NAND/NOR/XOR/XNOR/NOT/BUFF with any number of operands
    (where sensible). Order-independent. Raises [Failure] on bad lines,
    unsupported gates, undriven signals and combinational cycles. *)
val read_bench : string -> Graph.t
