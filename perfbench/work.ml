open Relalg
open Resilience

(* One op of a closed-loop client.  [run] is the timed call; [check]
   verifies its answer afterwards, outside the timed region. *)
type op = { kind : string; run : unit -> unit; check : unit -> bool }

type live = {
  next : int -> op;  (** The [i]-th op; built untimed. *)
  first_ok : unit -> bool;  (** Was the set-up's first answer correct? *)
  finish : unit -> bool;
      (** Untimed cross-checks against an independent path on a
          seed-chosen sample. *)
}

(* No state: what the loop holds while it builds a fresh one. *)
let none =
  { next = (fun _ -> invalid_arg "no live state"); first_ok = (fun () -> false); finish = (fun () -> false) }

(* A program the workload's ops solve, for the per-layer probes and the
   determinism self-test. *)
type program = {
  sem : Problem.semantics;
  q : Cq.t;
  db : Database.t;
  kind : [ `Res | `Rsp of Database.tuple_id | `Shared ];
}

type t = {
  setup : unit -> live;
      (** Timed set-up: load the data, build sessions or the engine, and
          produce the first answer. *)
  programs : unit -> program list;
  data : string list;
      (** The data texts the set-up loads, for the load-latency samples of
          workloads without write ops. *)
  warmup : int;
      (** Untimed epochs before an end-to-end run: their answers are
          checked, filling the workload's verification memo. *)
  burst_ops : int;
      (** Ops between host-speed kernel bursts: about 50 ms of ops. *)
  epoch_ops : int;
      (** Ops per epoch of an end-to-end run (one fresh set-up, then this
          many ops): about a tenth of a run's ops, a whole number of op
          cycles.  Counting ops rather than seconds keeps the allocation
          sequence, and with it the GC's behaviour, the same on a fast or a
          slow host. *)
}

(* Exact work counts, tallied by the [check] closures from the answers'
   own stats. *)
type tally = {
  mutable solves : int;
  mutable pivots : int;
  mutable nodes : int;
  mutable refactors : int;
  mutable cuts : int;
  mutable cut_pivots : int;
  mutable questions : int;  (** Session.responsibility calls. *)
}

let tally =
  { solves = 0; pivots = 0; nodes = 0; refactors = 0; cuts = 0; cut_pivots = 0; questions = 0 }

let reset_tally () =
  tally.solves <- 0;
  tally.pivots <- 0;
  tally.nodes <- 0;
  tally.refactors <- 0;
  tally.cuts <- 0;
  tally.cut_pivots <- 0;
  tally.questions <- 0

let count_solve (s : Session.stats) =
  tally.solves <- tally.solves + 1;
  tally.pivots <- tally.pivots + s.Session.pivots;
  tally.nodes <- tally.nodes + s.Session.nodes;
  tally.refactors <- tally.refactors + s.Session.refactors

let load text = Obs.Trace.with_span "parse" (fun () -> Database_io.parse_string text)

(* Extra per-layer samples recorded by workloads, by metric name. *)
let samples : (string, float list) Hashtbl.t = Hashtbl.create 8

let sample name v =
  Hashtbl.replace samples name (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))

let weight sem db ids =
  List.fold_left (fun acc t -> acc + Problem.weight sem (Database.tuple db t)) 0 ids

(* Verify a contingency unless it is the set last verified for the same
   question.  Only a digest of that set is kept per question, so the
   benchmark's own memory stays flat however many ops a run completes
   (warm sessions may return a different optimal set on every pass, and
   responsibility sets on the sparse chain hold hundreds of tuples). *)
let memo () =
  let last = Hashtbl.create 64 in
  fun key (set : Database.tuple_id list) verify ->
    let d = Digest.string (Marshal.to_string set []) in
    match Hashtbl.find_opt last key with
    | Some d' when d' = d -> true
    | _ ->
      let ok = verify () in
      if ok then Hashtbl.replace last key d;
      ok

(* Every op asking the same question must get the same optimum. *)
let consistent () =
  let first = Hashtbl.create 64 in
  let check key v =
    match Hashtbl.find_opt first key with
    | Some v0 -> v0 = v
    | None ->
      Hashtbl.add first key v;
      true
  in
  (check, Hashtbl.find_opt first)

(* [k] distinct indices of [0, n) for the cross-check sample. *)
let sample_indices st ~n k =
  if k >= n then List.init n Fun.id else Gen.distinct st ~n k
