(* Buffer packing (§5).

   Decides how the values in a ReqComm set are arranged in the stream
   buffer between two filters and performs the actual byte-level
   serialization.

   For the fields of a collection's elements the paper gives two layouts:
   - instance-wise: <count, t1.x, t1.y, ..., tcount.x, tcount.y>
   - field-wise:    <count, t1.x .. tcount.x, t1.y .. tcount.y>

   Fields first consumed by the receiving filter are grouped together and
   packed instance-wise; fields first consumed by a later filter are
   packed field-wise (one contiguous column per group), sorted by the
   order in which they are first read.  A contiguous column that the
   receiving filter only forwards can be copied to the output buffer
   wholesale, which is where the field-wise layout wins. *)

open Lang
module V = Value

type scalar_ty = Sint | Sfloat | Sbool | Sstring | Srange

let scalar_ty_of_ast (ty : Ast.ty) =
  match ty with
  | Ast.Tint -> Some Sint
  | Ast.Tfloat -> Some Sfloat
  | Ast.Tbool -> Some Sbool
  | Ast.Tstring -> Some Sstring
  | Ast.Trectdomain -> Some Srange
  | _ -> None

let scalar_size = function
  | Sint -> 8
  | Sfloat -> 8
  | Sbool -> 1
  | Srange -> 16
  | Sstring -> -1 (* variable *)

type field_spec = { fs_name : string; fs_ty : scalar_ty }

(* A group of element fields packed together.  [Instance] interleaves the
   group's fields per element; [Fieldwise] stores one contiguous column
   per field. *)
type group = {
  g_layout : [ `Instance | `Fieldwise ];
  g_fields : field_spec list;
  g_first_consumer : int option; (* filter index that first reads them *)
}

type entry =
  | Escalar of string * scalar_ty             (* top-level variable *)
  | Eobj_field of string * string * string * scalar_ty
      (* object var, its class, field name, field type *)
  | Eobj_any of string * string * string * Ast.ty
      (* object var, its class, structured field (array/list/object
         typed), serialized generically *)
  | Earray of string * Section.t * scalar_ty  (* array (or section) *)
  | Ecoll of string * string option * group list
      (* collection var, element class (None = primitive elements),
         ordered field groups *)

type layout = entry list

(* ------------------------------------------------------------------ *)
(* Layout construction                                                  *)
(* ------------------------------------------------------------------ *)

(* Layout policy: [`Auto] is the paper's rule (§5); the other two force a
   single scheme everywhere and exist for the packing ablation. *)
type mode = [ `Auto | `All_instance | `All_fieldwise ]

(* Build the layout for the boundary entering segment [cut], given the
   decomposition via [filter_of_seg] (which filter index each segment
   belongs to).  [rc] supplies the ReqComm set and first-consumer
   queries. *)
let layout_for_cut ?(mode : mode = `Auto) (prog : Ast.program)
    (tyenv : Tyenv.t) (rc : Reqcomm.t) ~(cut : int)
    ~(filter_of_seg : int -> int) : layout =
  let items = Varset.items (Reqcomm.reqcomm_into rc cut) in
  let receiving_filter = filter_of_seg cut in
  (* group items by base variable *)
  let scalars = ref [] in
  let obj_fields = Hashtbl.create 8 in
  let colls = Hashtbl.create 8 in
  let arrays = ref [] in
  List.iter
    (fun item ->
      match item with
      | Varset.Var v -> (
          match Tyenv.find tyenv v with
          | Some ty -> (
              match scalar_ty_of_ast ty with
              | Some st -> scalars := (v, st) :: !scalars
              | None -> () (* object/coll vars appear as field items *))
          | None -> scalars := (v, Sint) :: !scalars)
      | Varset.Coll c -> if not (Hashtbl.mem colls c) then Hashtbl.replace colls c []
      | Varset.ElemField (c, f) -> (
          match Tyenv.find tyenv c with
          | Some (Ast.Tlist _) ->
              let cur = try Hashtbl.find colls c with Not_found -> [] in
              Hashtbl.replace colls c (f :: cur)
          | Some (Ast.Tclass cls) ->
              let cur = try Hashtbl.find obj_fields (c, cls) with Not_found -> [] in
              Hashtbl.replace obj_fields (c, cls) (f :: cur)
          | _ -> ())
      | Varset.Arr (a, s) -> (
          match Tyenv.find tyenv a with
          | Some (Ast.Tarray elt) -> (
              match scalar_ty_of_ast elt with
              | Some st -> arrays := (a, s, st) :: !arrays
              | None -> ())
          | _ -> ()))
    items;
  let scalar_entries =
    List.sort compare !scalars |> List.map (fun (v, st) -> Escalar (v, st))
  in
  let obj_entries =
    Hashtbl.fold
      (fun (v, cls) fields acc ->
        List.fold_left
          (fun acc f ->
            match Tyenv.field_ty prog cls f with
            | Some fty -> (
                match scalar_ty_of_ast fty with
                | Some st -> Eobj_field (v, cls, f, st) :: acc
                | None -> Eobj_any (v, cls, f, fty) :: acc)
            | None -> acc)
          acc (List.sort_uniq compare fields))
      obj_fields []
    |> List.sort compare
  in
  let array_entries =
    List.sort compare !arrays |> List.map (fun (a, s, st) -> Earray (a, s, st))
  in
  let coll_entries =
    Hashtbl.fold
      (fun c fields acc ->
        let elem_class, field_ty_of =
          match Tyenv.find tyenv c with
          | Some (Ast.Tlist (Ast.Tclass cls)) ->
              (Some cls, fun f -> Tyenv.field_ty prog cls f)
          | Some (Ast.Tlist elt) -> (None, fun _ -> Some elt)
          | _ -> (None, fun _ -> None)
        in
        let fields =
          match (elem_class, fields) with
          | None, [] -> [ Gencons.prim_field ] (* primitive collection *)
          | _ -> List.sort_uniq compare fields
        in
        let specs =
          List.filter_map
            (fun f ->
              match field_ty_of f with
              | Some ty -> (
                  match scalar_ty_of_ast ty with
                  | Some st -> Some ({ fs_name = f; fs_ty = st }, f)
                  | None -> None)
              | None ->
                  if f = Gencons.prim_field then
                    Some ({ fs_name = f; fs_ty = Sfloat }, f)
                  else None)
            fields
        in
        (* first consumer (as a filter index) of each field *)
        let consumer_of f =
          match Reqcomm.first_consumer rc cut (Varset.ElemField (c, f)) with
          | Some seg -> Some (filter_of_seg seg)
          | None -> None
        in
        let with_consumer =
          List.map (fun (spec, f) -> (spec, consumer_of f)) specs
        in
        (* partition into groups by first-consuming filter *)
        let module IM = Map.Make (struct
          type t = int option

          let compare a b =
            match (a, b) with
            | None, None -> 0
            | None, Some _ -> 1 (* never-consumed last *)
            | Some _, None -> -1
            | Some x, Some y -> compare x y
        end) in
        let grouped =
          List.fold_left
            (fun m (spec, cons) ->
              IM.update cons
                (function None -> Some [ spec ] | Some l -> Some (spec :: l))
                m)
            IM.empty with_consumer
        in
        let groups =
          match mode with
          | `Auto ->
              IM.bindings grouped
              |> List.map (fun (cons, specs) ->
                     {
                       g_layout =
                         (if cons = Some receiving_filter then `Instance
                          else `Fieldwise);
                       g_fields = List.sort compare specs;
                       g_first_consumer = cons;
                     })
          | `All_instance ->
              (* every field interleaved in one group *)
              [
                {
                  g_layout = `Instance;
                  g_fields = List.sort compare (List.map fst specs);
                  g_first_consumer = None;
                };
              ]
          | `All_fieldwise ->
              (* one contiguous column per field *)
              List.map
                (fun (spec, _) ->
                  {
                    g_layout = `Fieldwise;
                    g_fields = [ spec ];
                    g_first_consumer = None;
                  })
                specs
        in
        let groups = List.filter (fun g -> g.g_fields <> []) groups in
        Ecoll (c, elem_class, groups) :: acc)
      colls []
    |> List.sort compare
  in
  scalar_entries @ obj_entries @ array_entries @ coll_entries

(* ------------------------------------------------------------------ *)
(* Serialization                                                        *)
(* ------------------------------------------------------------------ *)

(* The byte codec itself lives in the leaf [Wirefmt] library so the
   runtime's wire protocol (Datacutter.Wire) can frame payloads with the
   exact same encoding without a core↔datacutter dependency cycle. *)
let buf_add_int = Wirefmt.buf_add_int
let buf_add_float = Wirefmt.buf_add_float
let buf_add_bool = Wirefmt.buf_add_bool
let buf_add_string = Wirefmt.buf_add_string

let add_scalar buf st (v : V.t) =
  match st with
  | Sint -> buf_add_int buf (V.as_int v)
  | Sfloat -> buf_add_float buf (V.as_float v)
  | Sbool -> buf_add_bool buf (V.as_bool v)
  | Sstring -> buf_add_string buf (V.as_string v)
  | Srange -> (
      match v with
      | V.Vrange (lo, hi) ->
          buf_add_int buf lo;
          buf_add_int buf hi
      | _ -> V.runtime_errorf "expected Rectdomain, got %s" (V.type_name v))

type reader = Wirefmt.reader = {
  data : Bytes.t;
  mutable pos : int;
  limit : int;
}

let reader_of = Wirefmt.reader_of

let read_int = Wirefmt.read_int
let read_float = Wirefmt.read_float
let read_bool = Wirefmt.read_bool
let read_string = Wirefmt.read_string

let read_scalar r st =
  match st with
  | Sint -> V.Vint (read_int r)
  | Sfloat -> V.Vfloat (read_float r)
  | Sbool -> V.Vbool (read_bool r)
  | Sstring -> V.Vstring (read_string r)
  | Srange ->
      let lo = read_int r in
      let hi = read_int r in
      V.Vrange (lo, hi)

(* --- generic structured-value serialization --------------------------- *)

(* Serialize any PipeLang value by its declared type: scalars directly,
   arrays and lists length-prefixed, objects field-by-field in declaration
   order with a presence byte (null support).  Used for object fields of
   structured type and for reduction-state payloads ([Objpack]). *)
let rec pack_value_generic buf prog (ty : Ast.ty) (v : V.t) =
  match ty with
  | Ast.Tint -> buf_add_int buf (V.as_int v)
  | Ast.Tfloat -> buf_add_float buf (V.as_float v)
  | Ast.Tbool -> buf_add_bool buf (V.as_bool v)
  | Ast.Tstring -> buf_add_string buf (V.as_string v)
  | Ast.Tvoid -> ()
  | Ast.Trectdomain -> (
      match v with
      | V.Vrange (lo, hi) ->
          buf_add_int buf lo;
          buf_add_int buf hi
      | _ -> V.runtime_errorf "pack: expected Rectdomain")
  | Ast.Tarray elt -> (
      match v with
      | V.Vnull -> buf_add_int buf (-1)
      | V.Varray a ->
          buf_add_int buf (Array.length a);
          Array.iter (fun x -> pack_value_generic buf prog elt x) a
      | _ -> V.runtime_errorf "pack: expected array, got %s" (V.type_name v))
  | Ast.Tlist elt ->
      let l = V.as_list v in
      buf_add_int buf (V.Vec.length l);
      V.Vec.iter (fun x -> pack_value_generic buf prog elt x) l
  | Ast.Tclass cls -> (
      match v with
      | V.Vnull -> buf_add_bool buf false
      | V.Vobject obj ->
          buf_add_bool buf true;
          List.iteri
            (fun i (fty, _) -> pack_value_generic buf prog fty obj.V.slots.(i))
            obj.V.cls.Ast.cd_fields
      | _ -> V.runtime_errorf "pack: expected %s object" cls)

let unpack_class prog cls =
  match Ast.find_class prog cls with
  | Some cd -> cd
  | None -> V.runtime_errorf "unpack: unknown class %s" cls

let rec unpack_value_generic (r : reader) prog (ty : Ast.ty) : V.t =
  match ty with
  | Ast.Tint -> V.Vint (read_int r)
  | Ast.Tfloat -> V.Vfloat (read_float r)
  | Ast.Tbool -> V.Vbool (read_bool r)
  | Ast.Tstring -> V.Vstring (read_string r)
  | Ast.Tvoid -> V.Vunit
  | Ast.Trectdomain ->
      let lo = read_int r in
      let hi = read_int r in
      V.Vrange (lo, hi)
  | Ast.Tarray elt ->
      let n = read_int r in
      if n < 0 then V.Vnull
      else V.Varray (V.init_array n (fun _ -> unpack_value_generic r prog elt))
  | Ast.Tlist elt ->
      let n = read_int r in
      let vec = V.Vec.create () in
      for _ = 1 to n do
        V.Vec.push vec (unpack_value_generic r prog elt)
      done;
      V.Vlist vec
  | Ast.Tclass cls -> (
      if not (read_bool r) then V.Vnull
      else
        let obj = V.make_object (unpack_class prog cls) in
        List.iteri
          (fun i (fty, _) -> obj.V.slots.(i) <- unpack_value_generic r prog fty)
          obj.V.cls.Ast.cd_fields;
        V.Vobject obj)

let rec value_size_generic prog (ty : Ast.ty) (v : V.t) =
  match ty with
  | Ast.Tint | Ast.Tfloat -> 8
  | Ast.Tbool -> 1
  | Ast.Tstring -> 8 + String.length (V.as_string v)
  | Ast.Tvoid -> 0
  | Ast.Trectdomain -> 16
  | Ast.Tarray elt -> (
      match v with
      | V.Vnull -> 8
      | V.Varray a ->
          8 + Array.fold_left (fun s x -> s + value_size_generic prog elt x) 0 a
      | _ -> 8)
  | Ast.Tlist elt ->
      let l = V.as_list v in
      let s = ref 8 in
      V.Vec.iter (fun x -> s := !s + value_size_generic prog elt x) l;
      !s
  | Ast.Tclass _ -> (
      match v with
      | V.Vobject obj ->
          let s = ref 1 in
          List.iteri
            (fun i (fty, _) -> s := !s + value_size_generic prog fty obj.V.slots.(i))
            obj.V.cls.Ast.cd_fields;
          !s
      | _ -> 1)

(* Wrap an environment lookup so the "runtime:<name>" symbols produced
   by the analysis for [runtime_define] bounds resolve against the
   run-time definition table. *)
let runtime_aware_lookup ~(runtime_def : string -> int option)
    ~(lookup : string -> V.t) name =
  let prefix = "runtime:" in
  let plen = String.length prefix in
  if String.length name > plen && String.sub name 0 plen = prefix then
    let key = String.sub name plen (String.length name - plen) in
    match runtime_def key with
    | Some v -> V.Vint v
    | None -> V.runtime_errorf "runtime_define %s is not set" key
  else lookup name

let entry_var = function
  | Escalar (v, _)
  | Eobj_field (v, _, _, _)
  | Eobj_any (v, _, _, _)
  | Earray (v, _, _)
  | Ecoll (v, _, _) ->
      v

let dedup names =
  List.rev
    (List.fold_left
       (fun acc v -> if List.mem v acc then acc else v :: acc)
       [] names)

let bound_names layout = dedup (List.map entry_var layout)

let lookup_names layout =
  let sym = function
    | Section.Bconst _ -> []
    | Section.Bsym v | Section.Bsym_off (v, _) -> [ v ]
  in
  dedup
    (List.concat_map
       (function
         | Earray (a, Section.Range (lo, hi), _) -> (a :: sym lo) @ sym hi
         | e -> [ entry_var e ])
       layout)

(* Resolve a section against the runtime environment (symbolic bounds are
   looked up as integer variables). *)
let resolve_section lookup (arr : V.t array) (s : Section.t) =
  let resolve_bound = function
    | Section.Bconst n -> n
    | Section.Bsym v -> V.as_int (lookup v)
    | Section.Bsym_off (v, k) -> V.as_int (lookup v) + k
  in
  match s with
  | Section.Whole -> (0, Array.length arr)
  | Section.Range (lo, hi) ->
      let lo = max 0 (resolve_bound lo) in
      let hi = min (Array.length arr) (resolve_bound hi) in
      (lo, max lo hi)

let obj_field lookup v f = V.field (V.as_object (lookup v)) f

(* One field of a collection's elements, resolved once for all of them. *)
let elt_field (fs : field_spec) =
  if fs.fs_name = Gencons.prim_field then Fun.id
  else
    let slot = V.site fs.fs_name in
    fun elt ->
      let o = V.as_object elt in
      o.V.slots.(slot o)

(* Pack the values described by [layout] from [lookup] into bytes. *)
let pack (prog : Ast.program) (layout : layout) ~(lookup : string -> V.t) :
    Bytes.t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun entry ->
      match entry with
      | Escalar (v, st) -> add_scalar buf st (lookup v)
      | Eobj_field (v, _, f, st) -> add_scalar buf st (obj_field lookup v f)
      | Eobj_any (v, _, f, ty) ->
          pack_value_generic buf prog ty (obj_field lookup v f)
      | Earray (a, s, st) ->
          let arr = V.as_array (lookup a) in
          let lo, hi = resolve_section lookup arr s in
          buf_add_int buf lo;
          buf_add_int buf (hi - lo);
          for i = lo to hi - 1 do
            add_scalar buf st arr.(i)
          done
      | Ecoll (c, _, groups) ->
          let l = V.as_list (lookup c) in
          let n = V.Vec.length l in
          buf_add_int buf n;
          List.iter
            (fun g ->
              let fields =
                List.map (fun fs -> (fs.fs_ty, elt_field fs)) g.g_fields
              in
              match g.g_layout with
              | `Instance ->
                  for i = 0 to n - 1 do
                    let elt = V.Vec.get l i in
                    List.iter (fun (st, get) -> add_scalar buf st (get elt)) fields
                  done
              | `Fieldwise ->
                  List.iter
                    (fun (st, get) ->
                      for i = 0 to n - 1 do
                        add_scalar buf st (get (V.Vec.get l i))
                      done)
                    fields)
            groups)
    layout;
  Buffer.to_bytes buf

(* Find or create the object value for variable [v] while unpacking;
   objects are rebuilt from their class declaration so every field exists
   (non-communicated ones keep their zero values) and methods resolve. *)
let obj_slot out add v cls prog =
  match List.assoc_opt v !out with
  | Some (V.Vobject o) -> o
  | _ ->
      let o = V.make_object (unpack_class prog cls) in
      add v (V.Vobject o);
      o

(* Unpack a buffer produced by [pack] with the same layout.  Collection
   elements are rebuilt as objects of the element class with only the
   packed fields meaningful (others take their zero values); arrays are
   rebuilt at [lo + length] size. *)
let unpack (prog : Ast.program) (layout : layout) (data : Bytes.t) :
    (string * V.t) list =
  let r = reader_of data in
  let out = ref [] in
  let add name v = out := (name, v) :: !out in
  List.iter
    (fun entry ->
      match entry with
      | Escalar (v, st) -> add v (read_scalar r st)
      | Eobj_field (v, cls, f, st) ->
          let value = read_scalar r st in
          V.set_field (obj_slot out add v cls prog) f value
      | Eobj_any (v, cls, f, ty) ->
          let value = unpack_value_generic r prog ty in
          V.set_field (obj_slot out add v cls prog) f value
      | Earray (a, s, st) ->
          ignore s;
          let lo = read_int r in
          let len = read_int r in
          let arr =
            Array.make (lo + len)
              (match st with
              | Sint -> V.Vint 0
              | Sfloat -> V.Vfloat 0.0
              | Sbool -> V.Vbool false
              | Sstring -> V.Vstring ""
              | Srange -> V.Vrange (0, 0))
          in
          for i = lo to lo + len - 1 do
            arr.(i) <- read_scalar r st
          done;
          add a (V.Varray arr)
      | Ecoll (c, elem_class, groups) ->
          let n = read_int r in
          let cd = Option.map (unpack_class prog) elem_class in
          let elems =
            V.init_array n (fun _ ->
                match cd with
                | Some cd -> V.Vobject (V.make_object cd)
                | None -> V.Vfloat 0.0)
          in
          let setter (fs : field_spec) =
            match cd with
            | Some cd when fs.fs_name <> Gencons.prim_field ->
                let slot = V.slot cd fs.fs_name in
                fun i value -> (V.as_object elems.(i)).V.slots.(slot) <- value
            | _ -> fun i value -> elems.(i) <- value
          in
          List.iter
            (fun g ->
              let fields =
                List.map (fun fs -> (fs.fs_ty, setter fs)) g.g_fields
              in
              match g.g_layout with
              | `Instance ->
                  for i = 0 to n - 1 do
                    List.iter (fun (st, set) -> set i (read_scalar r st)) fields
                  done
              | `Fieldwise ->
                  List.iter
                    (fun (st, set) ->
                      for i = 0 to n - 1 do
                        set i (read_scalar r st)
                      done)
                    fields)
            groups;
          add c (V.Vlist (V.Vec.of_array elems)))
    layout;
  List.rev !out

(* Size in bytes of the buffer [pack] would produce, without building it.
   Used by the profiler to measure per-boundary volumes. *)
let packed_size (prog : Ast.program) (layout : layout)
    ~(lookup : string -> V.t) : int =
  let total = ref 0 in
  let scalar_bytes st v =
    match st with
    | Sstring -> 8 + String.length (V.as_string v)
    | st -> scalar_size st
  in
  List.iter
    (fun entry ->
      match entry with
      | Escalar (v, st) -> total := !total + scalar_bytes st (lookup v)
      | Eobj_field (v, _, f, st) ->
          total := !total + scalar_bytes st (obj_field lookup v f)
      | Eobj_any (v, _, f, ty) ->
          total := !total + value_size_generic prog ty (obj_field lookup v f)
      | Earray (a, s, st) ->
          let arr = V.as_array (lookup a) in
          let lo, hi = resolve_section lookup arr s in
          total := !total + 16;
          if st = Sstring then
            for i = lo to hi - 1 do
              total := !total + scalar_bytes st arr.(i)
            done
          else total := !total + ((hi - lo) * scalar_size st)
      | Ecoll (c, _, groups) ->
          let l = V.as_list (lookup c) in
          let n = V.Vec.length l in
          total := !total + 8;
          List.iter
            (fun g ->
              List.iter
                (fun fs ->
                  if fs.fs_ty = Sstring then
                    let get = elt_field fs in
                    for i = 0 to n - 1 do
                      total := !total + scalar_bytes Sstring (get (V.Vec.get l i))
                    done
                  else total := !total + (n * scalar_size fs.fs_ty))
                g.g_fields)
            groups)
    layout;
  !total

(* Operation cost charged for packing/unpacking a buffer with this
   layout: roughly two memory operations per packed value, with
   contiguous field-wise columns that the receiving filter does not
   consume charged as bulk copies (1/8 op per value).  [consumed_here]
   says whether the receiving filter reads a given collection field. *)
let marshal_ops (prog : Ast.program) (layout : layout)
    ~(lookup : string -> V.t) ~(consumed_here : string -> string -> bool) :
    int =
  let ops = ref 0 in
  List.iter
    (fun entry ->
      match entry with
      | Escalar _ -> ops := !ops + 2
      | Eobj_field _ -> ops := !ops + 2
      | Eobj_any (v, _, f, ty) ->
          ops := !ops + (value_size_generic prog ty (obj_field lookup v f) / 4)
      | Earray (a, s, _) ->
          let arr = V.as_array (lookup a) in
          let lo, hi = resolve_section lookup arr s in
          ops := !ops + (2 * (hi - lo))
      | Ecoll (c, _, groups) ->
          let l = V.as_list (lookup c) in
          let n = V.Vec.length l in
          List.iter
            (fun g ->
              let group_consumed =
                List.exists (fun fs -> consumed_here c fs.fs_name) g.g_fields
              in
              match (g.g_layout, group_consumed) with
              | `Fieldwise, false ->
                  (* forwarded column: bulk copy *)
                  ops := !ops + (n * List.length g.g_fields / 8) + 1
              | _ ->
                  ops := !ops + (2 * n * List.length g.g_fields))
            groups)
    layout;
  !ops

let pp_group ppf g =
  let layout = match g.g_layout with `Instance -> "inst" | `Fieldwise -> "field" in
  Fmt.pf ppf "%s(%a)" layout
    Fmt.(list ~sep:(any ",") (fun ppf fs -> Fmt.string ppf fs.fs_name))
    g.g_fields

let pp_entry ppf = function
  | Escalar (v, _) -> Fmt.pf ppf "scalar %s" v
  | Eobj_field (v, _, f, _) -> Fmt.pf ppf "obj %s.%s" v f
  | Eobj_any (v, _, f, ty) -> Fmt.pf ppf "obj %s.%s:%s" v f (Ast.ty_to_string ty)
  | Earray (a, s, _) -> Fmt.pf ppf "array %s%s" a (Section.to_string s)
  | Ecoll (c, _, groups) ->
      Fmt.pf ppf "coll %s<%a>" c Fmt.(list ~sep:(any "; ") pp_group) groups

let pp ppf (l : layout) = Fmt.(list ~sep:(any "@\n") pp_entry) ppf l
