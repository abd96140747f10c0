(* Structural equality of Wire frames, shared by the wire and shm
   tests, plus builders for the worker's answer. *)

module Wire = Datacutter.Wire
module Engine = Datacutter.Engine
module Filter = Datacutter.Filter
module Proc_window = Datacutter.Proc_window

let buffer ?(packet = 7) s = Filter.make_buffer ~packet (Bytes.of_string s)

let reply ?error ?telem outs = Wire.Reply ({ Proc_window.outs; error }, telem)

(* An error reply with no slots: a string carrier. *)
let error_reply s = reply ~error:s []

let buffer_equal (x : Filter.buffer) (y : Filter.buffer) =
  x.Filter.packet = y.Filter.packet && Bytes.equal x.Filter.data y.Filter.data

let item_equal a b =
  match (a, b) with
  | Engine.Marker, Engine.Marker -> true
  | Engine.Data x, Engine.Data y | Engine.Final x, Engine.Final y -> buffer_equal x y
  | _ -> false

let list_equal eq xs ys = List.length xs = List.length ys && List.for_all2 eq xs ys

let telemetry_equal (x : Wire.telemetry) (y : Wire.telemetry) =
  x.Wire.w_pid = y.Wire.w_pid
  && list_equal
       (fun (a : Wire.span) (b : Wire.span) ->
         String.equal a.Wire.s_name b.Wire.s_name
         && String.equal a.Wire.s_cat b.Wire.s_cat
         && a.Wire.s_ts = b.Wire.s_ts
         && a.Wire.s_dur = b.Wire.s_dur
         && a.Wire.s_tid = b.Wire.s_tid)
       x.Wire.w_spans y.Wire.w_spans
  && list_equal
       (fun (ka, va) (kb, vb) -> String.equal ka kb && va = vb)
       x.Wire.w_counters y.Wire.w_counters

let msg_equal a b =
  match (a, b) with
  | Wire.Init, Wire.Init
  | Wire.Finalize, Wire.Finalize
  | Wire.Next, Wire.Next
  | Wire.Src_finalize, Wire.Src_finalize
  | Wire.Exit, Wire.Exit ->
      true
  | Wire.Item x, Wire.Item y -> item_equal x y
  | Wire.Batch xs, Wire.Batch ys -> list_equal item_equal xs ys
  | Wire.Reply (x, xt), Wire.Reply (y, yt) ->
      list_equal (Option.equal buffer_equal) x.Proc_window.outs y.Proc_window.outs
      && Option.equal String.equal x.Proc_window.error y.Proc_window.error
      && Option.equal telemetry_equal xt yt
  | _ -> false
