(** Resolve-once executor for checked PipeLang, with operation
    accounting.

    A context runs a program the type checker has annotated
    ({!Typecheck.check}).  Its code is compiled once into closures over
    typed frames: variables resolve at compile time to frame slots or
    global cells, fields to an index into the object from the static
    class of the object, calls to the compiled function, builtin or
    extern, and methods are compiled once per (class, method).  A name
    that resolves to nothing raises its runtime error only when the code
    naming it runs.

    A frame has [Value.t] slots, a flat [float] part and an [int] part.
    [int] and [float] locals, parameters, packet inputs, loop variables,
    temporaries and function results live unboxed, so arithmetic,
    comparisons, numeric builtins, [float] object fields, [float[]]
    elements, argument passing and returns allocate nothing; a value is
    boxed where it meets a [Value.t] (other object fields, lists,
    externs, methods, globals, {!lookup} and {!setter}).  A value that
    is no number where one is used raises the error of the operator
    using it.  Each compiled function keeps the frame of its last
    finished call for the next one, so a context, like its counter,
    serves one domain at a time.

    Two uses: reference execution of whole programs (the sequential
    semantics every decomposed execution is checked against), and
    execution of individual filter code segments by the generated
    filters, over a packet frame filled from stream buffers.  Every
    executed operation is charged to the context's counter. *)

(** The program's compiled functions and methods, filled on first
    reference. *)
type code

type ctx = {
  prog : Ast.program;
  externs : (string, extern_fn) Hashtbl.t;
  runtime_defs : (string, int) Hashtbl.t;
  counter : Opcount.t;
  code : code;
}

(** Host-provided functions receive the context so they can charge
    operation costs (e.g. per byte read) and consult runtime defines. *)
and extern_fn = ctx -> Value.t list -> Value.t

(** @raise Invalid_argument when {!Typecheck.check} has not accepted the
    program. *)
val create_ctx :
  ?externs:(string * extern_fn) list ->
  ?runtime_defs:(string * int) list ->
  Ast.program ->
  ctx

val set_runtime_define : ctx -> string -> int -> unit

(** The program's declaration of a class, for externs that build its
    objects with {!Value.make_object}.
    @raise Value.Runtime_error when the program declares no such class. *)
val class_decl : ctx -> string -> Ast.class_decl

(** Invoke a method on an object or list value.
    @raise Value.Runtime_error on dynamic errors. *)
val call_method : ctx -> Value.t -> string -> Value.t list -> Value.t

(** {2 Globals} *)

(** One instance of the program's top-level variables. *)
type globals

(** Evaluate the top-level global declarations in order into a fresh
    instance (reduction globals accumulate in it across packets). *)
val init_globals : ctx -> globals

(** @raise Value.Runtime_error when no global has that name. *)
val global_value : globals -> string -> Value.t

(** {2 Packet code} *)

(** Code segments compiled against one packet frame and one globals
    instance. *)
type packet_code

(** The variables of one packet. *)
type frame

(** [compile_packet ctx globals ~inputs segments] compiles the segments
    to run in order in one packet scope, as if they were one statement
    list: a top-level declaration of one segment is visible to the later
    ones.  The packet scope starts with the pipeline variable and then
    [inputs] (the names a stream buffer fills, with their declared
    types); other free names resolve to [globals]. *)
val compile_packet :
  ctx ->
  globals ->
  inputs:(string * Ast.ty) list ->
  Ast.stmt list list ->
  packet_code

(** A fresh frame with the pipeline variable bound to [packet]. *)
val new_frame : packet_code -> packet:int -> frame

(** Run segment [i] (in the order given to {!compile_packet}).
    @raise Value.Runtime_error on dynamic errors. *)
val run_segment : packet_code -> int -> frame -> unit

val segment_count : packet_code -> int

(** [setter code name] writes [name] as the packet scope sees it after
    the last segment (e.g. an input, before the segments run).  Resolved
    once; the returned function raises {!Value.Runtime_error} when the
    name is unbound. *)
val setter : packet_code -> string -> frame -> Value.t -> unit

(** [lookup code names] resolves [names] once, as {!setter} does; the
    result reads a packet variable or global of a frame by name, for the
    marshalling code.  Names outside [names] are resolved on each
    call. *)
val lookup : packet_code -> string list -> frame -> string -> Value.t

(** {2 Reference execution} *)

(** Run the whole pipelined loop sequentially: the reference semantics.
    Returns the globals after the last packet. *)
val run_reference : ctx -> globals

(** {2 Yield points} *)

(** Every for, while and foreach back-edge is a yield point: it costs
    one decrement of a domain-local counter, and every 256 of them call
    the hook.  The hook is a no-op until a runtime installs one, for
    every domain at once ([Datacutter.Sched] installs one that yields
    only on its fiber hosts); no operation count depends on it. *)
val set_yield_hook : (unit -> unit) -> unit
