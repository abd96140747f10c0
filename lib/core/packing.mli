(** Buffer packing (§5).

    Decides how the values in a ReqComm set are arranged in the stream
    buffer between two filters and performs the byte-level serialization.
    For collection-element fields the paper gives two layouts:

    - instance-wise: [<count, t1.x, t1.y, ..., tn.x, tn.y>]
    - field-wise:    [<count, t1.x .. tn.x, t1.y .. tn.y>]

    Fields first consumed by the receiving filter are grouped together
    instance-wise; fields first consumed later form field-wise groups
    sorted by first reader.  A contiguous column the receiving filter
    only forwards can be bulk-copied, which is where field-wise wins.

    A layout chooses only the arrangement: every value it places is
    written by the one typed codec ({!pack_value_generic}) over
    {!Wirefmt}'s bytes. *)

open Lang

(** [int], [float], [bool], [String] and [Rectdomain<1>]: the types a
    collection field, an array element or a top-level variable must
    have to enter a layout.  An object field of any other type is
    packed whole. *)
val is_scalar : Ast.ty -> bool

type field_spec = { fs_name : string; fs_ty : Ast.ty  (** scalar *) }

(** A group of element fields packed together: [`Instance] interleaves
    them per element, [`Fieldwise] stores one contiguous column per
    field. *)
type group = {
  g_layout : [ `Instance | `Fieldwise ];
  g_fields : field_spec list;
  g_first_consumer : int option;  (** filter that first reads them *)
}

type entry =
  | Escalar of string * Ast.ty  (** top-level variable, scalar *)
  | Eobj_field of string * string * string * Ast.ty
      (** object var, its class, field name, field type: scalar
          fields come before structured (array/list/object) ones *)
  | Earray of string * Section.t * Ast.ty
      (** array (or section), scalar element type *)
  | Ecoll of string * string option * group list
      (** collection var, element class ([None] = primitives), ordered
          field groups *)

type layout = entry list

(** Layout policy: [`Auto] is the paper's §5 rule; the others force one
    scheme everywhere (for the packing ablation). *)
type mode = [ `Auto | `All_instance | `All_fieldwise ]

(** Layout for the boundary entering segment [cut] under the
    decomposition described by [filter_of_seg]. *)
val layout_for_cut :
  ?mode:mode ->
  Tyenv.t ->
  Reqcomm.t ->
  cut:int ->
  filter_of_seg:(int -> int) ->
  layout

(** {2 The value codec} — any PipeLang value by its declared type, over
    {!Wirefmt}'s bytes: every value of every layout entry, and every
    reduction-state payload ({!Objpack}).  Arrays and lists are
    length-prefixed; an object is written in its own class's field
    order behind a presence byte and rebuilt from [prog]'s declaration
    of the class its type names; an undeclared class raises
    [Value.Runtime_error]. *)

val pack_value_generic : Buffer.t -> Ast.program -> Ast.ty -> Value.t -> unit
val unpack_value_generic : Wirefmt.reader -> Ast.program -> Ast.ty -> Value.t
val value_size_generic : Ast.program -> Ast.ty -> Value.t -> int

(** Wrap an environment lookup so the ["runtime:<name>"] symbols the
    analysis produces for [runtime_define] loop bounds resolve against
    the run-time definition table. *)
val runtime_aware_lookup :
  runtime_def:(string -> int option) ->
  lookup:(string -> Value.t) ->
  string ->
  Value.t

(** The variables {!unpack} binds, once each, in layout order. *)
val bound_names : layout -> string list

(** The variables {!pack}, {!packed_size} and {!marshal_ops} look up:
    the bound names and the symbolic bounds of array sections. *)
val lookup_names : layout -> string list

(** {2 Packing and unpacking whole boundary layouts} *)

(** Serialize the values reached through [lookup]. *)
val pack : Ast.program -> layout -> lookup:(string -> Value.t) -> Bytes.t

(** Rebuild the named values from a buffer produced with the same
    layout.  Collection elements and objects are rebuilt from their class
    declarations (non-communicated fields keep zero values). *)
val unpack : Ast.program -> layout -> Bytes.t -> (string * Value.t) list

(** Byte size {!pack} would produce, without building the buffer. *)
val packed_size : Ast.program -> layout -> lookup:(string -> Value.t) -> int

(** Marshalling operation cost for this layout: two memory operations per
    packed value, except contiguous field-wise columns the receiving
    filter does not consume, which cost a bulk copy — §5's rationale for
    the field-wise layout.  [consumed_here c f] says whether the filter
    reads field [f] of collection [c]. *)
val marshal_ops :
  Ast.program ->
  layout ->
  lookup:(string -> Value.t) ->
  consumed_here:(string -> string -> bool) ->
  int

val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> layout -> unit
