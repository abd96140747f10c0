(* Fixed-bucket histogram.  Bucket i counts observations v with
   v <= bounds.(i) (and > bounds.(i-1)); counts.(n) is the overflow
   bucket.  Exact count/sum/min/max ride along so summary statistics
   don't inherit bucket resolution. *)

type t = {
  bounds : float array;
  counts : int array;           (* length = Array.length bounds + 1 *)
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create ~bounds =
  let n = Array.length bounds in
  if n = 0 then invalid_arg "Hist.create: empty bounds";
  for i = 1 to n - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Hist.create: bounds must be strictly increasing"
  done;
  {
    bounds = Array.copy bounds;
    counts = Array.make (n + 1) 0;
    count = 0;
    sum = 0.0;
    min_v = Float.infinity;
    max_v = Float.neg_infinity;
  }

let occupancy_bounds ~capacity =
  let rec pow2s acc v =
    if v >= capacity then List.rev (float_of_int capacity :: acc)
    else pow2s (float_of_int v :: acc) (v * 2)
  in
  if capacity <= 16 then Array.init (capacity + 1) float_of_int
  else
    Array.of_list
      (List.init 17 float_of_int @ List.tl (pow2s [] 32))

(* first bucket whose bound >= v, by binary search *)
let bucket_of h v =
  let n = Array.length h.bounds in
  if v > h.bounds.(n - 1) then n
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if h.bounds.(mid) >= v then hi := mid else lo := mid + 1
    done;
    !lo
  end

let observe h v =
  h.counts.(bucket_of h v) <- h.counts.(bucket_of h v) + 1;
  h.count <- h.count + 1;
  h.sum <- h.sum +. v;
  if v < h.min_v then h.min_v <- v;
  if v > h.max_v then h.max_v <- v

let count h = h.count
let sum h = h.sum
let mean h = if h.count = 0 then 0.0 else h.sum /. float_of_int h.count
let min_value h = h.min_v
let max_value h = h.max_v
let bounds h = Array.copy h.bounds
let counts h = Array.copy h.counts

let quantile h q =
  if h.count = 0 then 0.0
  else begin
    let target = q *. float_of_int h.count in
    let cum = ref 0 in
    let result = ref h.max_v in
    (try
       Array.iteri
         (fun i c ->
           cum := !cum + c;
           if float_of_int !cum >= target then begin
             result :=
               (if i < Array.length h.bounds then h.bounds.(i) else h.max_v);
             raise Exit
           end)
         h.counts
     with Exit -> ());
    !result
  end

let p50 h = quantile h 0.5
let p95 h = quantile h 0.95
let p99 h = quantile h 0.99

let merge a b =
  if a.bounds <> b.bounds then invalid_arg "Hist.merge: bound mismatch";
  let m = create ~bounds:a.bounds in
  Array.iteri (fun i c -> m.counts.(i) <- c + b.counts.(i)) a.counts;
  m.count <- a.count + b.count;
  m.sum <- a.sum +. b.sum;
  m.min_v <- Float.min a.min_v b.min_v;
  m.max_v <- Float.max a.max_v b.max_v;
  m

let to_json h =
  Json.Obj
    [
      ("count", Json.Int h.count);
      ("sum", Json.Float h.sum);
      ("mean", Json.Float (mean h));
      ("min", if h.count = 0 then Json.Null else Json.Float h.min_v);
      ("max", if h.count = 0 then Json.Null else Json.Float h.max_v);
      ( "buckets",
        Json.List
          (Array.to_list
             (Array.mapi
                (fun i c ->
                  Json.Obj
                    [
                      ( "le",
                        if i < Array.length h.bounds then
                          Json.Float h.bounds.(i)
                        else Json.Str "inf" );
                      ("count", Json.Int c);
                    ])
                h.counts)) );
    ]
