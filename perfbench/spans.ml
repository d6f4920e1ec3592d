(* The traced run's span forest.  The benchmark records its spans — one
   "op" span per op, carrying the op id as an arg, and spans around its own
   calls into the layers' public functions — with Obs.Trace, beside the
   program's existing spans (eval.witnesses, presolve, bb.solve, session
   spans).  Obs.Trace.drain returns them all; nesting and op ids follow
   from interval containment. *)

(* [f ()] recorded as a span, and its duration in seconds. *)
let timed name f =
  let t0 = Obs.Clock.now () in
  let v = Obs.Trace.with_span name f in
  (v, Obs.Clock.now () -. t0)

type node = { s : Obs.Trace.span; mutable parent : int; mutable op_of : int; mutable self : float }

let op_id (s : Obs.Trace.span) =
  if s.name <> "op" then None else Option.map int_of_string (List.assoc_opt "op" s.args)

(* Sort by start, the longer span first on ties and an "op" span before
   any other span of the same interval; then the parent of a span is the
   innermost open span containing it.  A span inherits the op id of its
   nearest "op" ancestor; spans outside every op get -1. *)
let forest (spans : Obs.Trace.span list) =
  let arr =
    Array.of_list
      (List.stable_sort
         (fun (a : Obs.Trace.span) (b : Obs.Trace.span) ->
           match compare a.t0 b.t0 with
           | 0 -> ( match compare b.t1 a.t1 with 0 -> compare (op_id b <> None) (op_id a <> None) | c -> c)
           | c -> c)
         spans)
  in
  let nodes = Array.map (fun (s : Obs.Trace.span) -> { s; parent = -1; op_of = -1; self = s.t1 -. s.t0 }) arr in
  let stack = ref [] in
  Array.iteri
    (fun i n ->
      let rec pop () =
        match !stack with
        | j :: rest when not (n.s.t0 >= nodes.(j).s.t0 && n.s.t1 <= nodes.(j).s.t1) ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
      | j :: _ ->
        n.parent <- j;
        nodes.(j).self <- nodes.(j).self -. (n.s.t1 -. n.s.t0)
      | [] -> ());
      n.op_of <-
        (match op_id n.s with
        | Some id -> id
        | None -> if n.parent >= 0 then nodes.(n.parent).op_of else -1);
      stack := i :: !stack)
    nodes;
  nodes

(* One JSON line per span: name, op id, parent index, start and end in
   seconds relative to the first span, self time. *)
let write path nodes =
  let base = if Array.length nodes = 0 then 0. else nodes.(0).s.t0 in
  let oc = open_out path in
  Array.iter
    (fun n ->
      Printf.fprintf oc "{\"name\":%S,\"op\":%d,\"parent\":%d,\"t0\":%.9f,\"t1\":%.9f,\"self\":%.9f}\n"
        n.s.name n.op_of n.parent (n.s.t0 -. base) (n.s.t1 -. base) n.self)
    nodes;
  close_out oc
