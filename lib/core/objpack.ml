(* Whole-object serialization for reduction state.

   Per-packet communication is layout-optimized by [Packing]; reduction
   partials, in contrast, travel once per copy at finalize time and are
   serialized generically (an object's fields in declaration order,
   recursing into arrays, lists and nested objects) with [Packing]'s
   value codec. *)

open Lang
module V = Value

(* Pack a set of named globals (name, declared type, value). *)
let pack_globals prog (globals : (string * Ast.ty * V.t) list) : Bytes.t =
  let buf = Buffer.create 256 in
  Wirefmt.buf_add_int buf (List.length globals);
  List.iter
    (fun (name, ty, v) ->
      Wirefmt.buf_add_string buf name;
      Packing.pack_value_generic buf prog ty v)
    globals;
  Buffer.to_bytes buf

let unpack_globals prog (types : (string * Ast.ty) list) (data : Bytes.t) :
    (string * V.t) list =
  let r = Wirefmt.reader_of data in
  let n = Wirefmt.read_int r in
  List.init n (fun _ ->
      let name = Wirefmt.read_string r in
      match List.assoc_opt name types with
      | Some ty -> (name, Packing.unpack_value_generic r prog ty)
      | None -> V.runtime_errorf "objpack: unknown global %s in payload" name)

let packed_size prog globals = Bytes.length (pack_globals prog globals)
