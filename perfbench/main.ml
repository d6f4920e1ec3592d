(* The benchmark harness: one closed-loop client, one process, jobs = 1.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--spans FILE]
     main.exe --workload W --seed N --counts K

   --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
   (half the run untraced, half traced, so the tracing overhead is
   measured too), --counts K the exact counts of set-up plus K ops for the
   determinism self-test.  The last line of standard output is one JSON
   object. *)

open Relalg
open Resilience

let workloads =
  [
    ("rank_sparse", Rank.make);
    ("oneshot_paper", Oneshot.make);
    ("enum_dense", Enum.make);
    ("serve_rw", Serve_rw.make);
  ]

let block_bursts = 20 (* kernel bursts per block, the span one host-speed factor covers *)

let now = Obs.Clock.now

let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let mean xs = match xs with [] -> 0. | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* Counters read around each op's run, so the cross-checks between ops
   never count. *)
let counter_names =
  [ "bb.nodes"; "simplex.pivots"; "simplex.refactors"; "simplex.ftran_nnz"; "simplex.ftran_len";
    "solve.certified"; "incremental.appends"; "incremental.rebuilds" ]

let counters = List.map (fun n -> (n, Obs.Counter.create n)) counter_names
let read_counters () = List.map (fun (_, c) -> Obs.Counter.value c) counters

(* A growable float buffer outside the OCaml heap, so the harness's per-op
   records do not count in peak_heap_mb. *)
module Buf = struct
  open Bigarray

  type t = { mutable a : (float, float64_elt, c_layout) Array1.t; mutable n : int }

  let create () = { a = Array1.create float64 c_layout 1024; n = 0 }

  let push b v =
    if b.n = Array1.dim b.a then begin
      let a = Array1.create float64 c_layout (2 * b.n) in
      Array1.blit b.a (Array1.sub a 0 b.n);
      b.a <- a
    end;
    b.a.{b.n} <- v;
    b.n <- b.n + 1

  let get b i = b.a.{i}
  let last b = b.a.{b.n - 1}
end

let kind_code = function "insert" -> 1. | "delete" -> 2. | _ -> 0.

type run = {
  raw : Buf.t;  (** Per-op latency, seconds. *)
  block_of : Buf.t;  (** Per-op index of its block. *)
  kind : Buf.t;  (** Per-op [kind_code]. *)
  factors : Buf.t;  (** Per block: Calib.reference / the kernel's median. *)
  attempted : int;
  failed : int;
  deltas : int array;  (** Counter deltas summed over op runs. *)
  minor_words : float;  (** Allocated inside op runs. *)
  major : int;  (** Major collections ending inside op runs. *)
}

let median_of ts = percentile 0.5 ts

(* The closed loop: build op i untimed, time its run, check it untimed.
   Every [renew_ops] ops, [renew] replaces the live state (a fresh timed
   set-up); the old state is dropped first, so only one is ever alive.
   After every [burst_ops] ops comes a burst of kernel slices, then
   [after_burst] with the current block's index; after every
   [block_bursts] bursts a block ends and its factor is fixed.  Counting
   ops, not seconds, keeps the sequence of allocations and forced
   collections, and so the heap's growth, the same on a fast or a slow
   host. *)
let loop ?(max_ops = max_int) ?renew ?(renew_ops = max_int) ?(after_burst = ignore) ~burst_ops
    (live : Work.live ref) ~seconds =
  let raw = Buf.create () and block_of = Buf.create () and kind = Buf.create () in
  let factors = Buf.create () and kernel = ref [] in
  let failed = ref 0 and i = ref 0 in
  let deltas = Array.make (List.length counters) 0 in
  let minor = ref 0. and major = ref 0 in
  let close_block () =
    let f =
      match !kernel with
      | [] -> if factors.Buf.n = 0 then 1. else Buf.last factors
      | ts -> Calib.reference /. median_of ts
    in
    Buf.push factors f;
    kernel := []
  in
  Gc.compact ();
  let stop = now () +. seconds in
  while !i < max_ops && now () < stop do
    (match renew with
    | Some f when !i > 0 && !i mod renew_ops = 0 ->
      live := Work.none;
      live := f ()
    | _ -> ());
    let op = !live.Work.next !i in
    let id = !i in
    let c0 = read_counters () and g0 = Gc.quick_stat () in
    let t0 = now () in
    let ran =
      match Obs.Trace.with_span ~args:(fun () -> [ ("op", string_of_int id) ]) "op" op.Work.run with
      | () -> true
      | exception _ -> false
    in
    let t1 = now () in
    let g1 = Gc.quick_stat () in
    minor := !minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    major := !major + (g1.Gc.major_collections - g0.Gc.major_collections);
    List.iteri (fun k (a, b) -> deltas.(k) <- deltas.(k) + b - a)
      (List.combine c0 (read_counters ()));
    let ok = ran && (try op.Work.check () with _ -> false) in
    if not ok then incr failed;
    Buf.push raw (t1 -. t0);
    Buf.push block_of (fi factors.Buf.n);
    Buf.push kind (kind_code op.Work.kind);
    incr i;
    if !i mod burst_ops = 0 then begin
      kernel := Calib.burst () @ !kernel;
      after_burst factors.Buf.n;
      if !i mod (burst_ops * block_bursts) = 0 then close_block ()
    end
  done;
  close_block ();
  { raw; block_of; kind; factors; attempted = !i; failed = !failed; deltas; minor_words = !minor;
    major = !major }

(* Latencies in seconds of the ops whose kind satisfies [keep]: scaled by
   their block's factor, or as measured with [~raw:true]. *)
let lats ?(raw = false) ?(keep = fun _ -> true) r =
  List.filter_map
    (fun k ->
      if not (keep (Buf.get r.kind k)) then None
      else
        let f = if raw then 1. else Buf.get r.factors (int_of_float (Buf.get r.block_of k)) in
        Some (Buf.get r.raw k *. f))
    (List.init r.raw.Buf.n Fun.id)

let writes c = c > 0.

let delta r name =
  let rec find k = function
    | [] -> 0
    | (n, _) :: rest -> if n = name then r.deltas.(k) else find (k + 1) rest
  in
  find 0 counters

(* Completed ops per second of op time, host-speed scaled. *)
let ops_per_s r = ratio (fi r.attempted) (List.fold_left ( +. ) 0. (lats r))

(* One fresh set-up, timed from a compacted heap and scaled by the median
   of kernel bursts just before and just after it; its first answer is
   checked. *)
let set_up (w : Work.t) =
  Gc.compact ();
  let before = Calib.burst () @ Calib.burst () in
  let t0 = now () in
  let l = w.Work.setup () in
  let dt = now () -. t0 in
  let after = Calib.burst () @ Calib.burst () in
  (l, dt *. Calib.reference /. median_of (before @ after), l.Work.first_ok ())

(* --- per-layer probes ---------------------------------------------------- *)

type probe = {
  eval_ms : float;
  witnesses : int;
  encode_ms : float;
  rows : int;
  nnz : int;
  presolve_ms : float;
  rows_removed : int;
  struct_ms : float;
}

(* The layers below one of the workload's programs, called one at a time
   through their public functions: median of three timings each. *)
let probe (p : Work.program) =
  let med f =
    let runs = List.init 3 (fun _ -> f ()) in
    (fst (List.hd runs), 1000. *. percentile 0.5 (List.map snd runs))
  in
  let ws, eval_ms = med (fun () -> Spans.timed "probe.eval" (fun () -> Eval.witnesses p.q p.db)) in
  let encode () =
    match p.kind with
    | `Shared -> (
      match Encode.shared_of_witnesses Encode.Ilp p.sem p.q p.db ws with
      | Encode.Shared s -> Some (Lp.Frozen.of_model s.Encode.smodel)
      | Encode.Shared_trivial | Encode.Shared_impossible -> None)
    | `Res | `Rsp _ -> (
      let enc =
        match p.kind with
        | `Rsp t -> Encode.rsp_of_witnesses Encode.Ilp p.sem p.q p.db ws t
        | _ -> Encode.res_of_witnesses Encode.Ilp p.sem p.q p.db ws
      in
      match enc with
      | Encode.Encoded e -> Some (Lp.Frozen.of_model e.Encode.model)
      | Encode.Trivial _ | Encode.Impossible -> None)
  in
  let fz, encode_ms = med (fun () -> Spans.timed "probe.encode" encode) in
  let zero =
    { eval_ms; witnesses = List.length ws; encode_ms; rows = 0; nnz = 0; presolve_ms = 0.;
      rows_removed = 0; struct_ms = 0. }
  in
  match fz with
  | None -> zero
  | Some fz -> (
    let rows = Lp.Frozen.num_rows fz and nnz = Lp.Frozen.nnz fz in
    let pre, presolve_ms =
      med (fun () -> Spans.timed "probe.presolve" (fun () -> Lp.Presolve.presolve fz))
    in
    match pre with
    | Lp.Presolve.Reduced (red, _) ->
      let _, struct_ms =
        med (fun () -> Spans.timed "probe.struct" (fun () -> Lp.Struct.analyze red))
      in
      { zero with rows; nnz; presolve_ms; rows_removed = rows - Lp.Frozen.num_rows red; struct_ms }
    | Lp.Presolve.Infeasible | Lp.Presolve.Unbounded -> { zero with rows; nnz; presolve_ms })

(* --- output -------------------------------------------------------------- *)

let json_number v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           let v = if Float.is_finite v then v else 0. in
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed m

let ms = 1000.

(* --- the three modes ----------------------------------------------------- *)

(* The write stand-in of workloads without write ops: loading a batch of
   [chunk_lines] tuples cut from the workload's own data texts.  The
   samples cycle over [chunk_picks] full batches spread evenly over the
   texts, so every run samples the same mix of relations; [loads_per_burst]
   follow each kernel burst. *)
let chunk_lines = 32
let chunk_picks = 16
let loads_per_burst = 2

let chunks texts =
  let full =
    Array.of_list
      (List.concat_map
         (fun text ->
           let lines = Array.of_list (String.split_on_char '\n' text) in
           List.init (Array.length lines / chunk_lines) (fun k ->
               String.concat "\n" (Array.to_list (Array.sub lines (k * chunk_lines) chunk_lines))))
         texts)
  in
  let n = Array.length full in
  if n = 0 then [||] else Array.init chunk_picks (fun k -> full.(k * n / chunk_picks))

(* Untimed warm-up epochs, answers checked; true when all were right. *)
let warm_up (w : Work.t) =
  List.for_all
    (fun _ ->
      let live, _, ok = set_up w in
      let r = loop ~max_ops:w.Work.epoch_ops (ref live) ~seconds:infinity ~burst_ops:w.Work.burst_ops in
      ok && r.failed = 0)
    (List.init w.Work.warmup Fun.id)

let end_to_end (w : Work.t) ~seconds =
  (* The run is a sequence of epochs, each a fresh timed set-up followed by
     [epoch_ops] ops, so the set-up samples meet the same mix of host states
     as the ops. *)
  let setups_ok = ref (warm_up w) in
  let setup_times = ref [] in
  let renew () =
    let l, dt, ok = set_up w in
    setup_times := dt :: !setup_times;
    setups_ok := !setups_ok && ok;
    Gc.compact ();
    l
  in
  let live = ref (renew ()) in
  (* Load samples, scaled by the factor of their block like the ops. *)
  let chunks = chunks w.Work.data and next_chunk = ref 0 in
  let loads = Buf.create () and load_block = Buf.create () in
  let after_burst block =
    if Array.length chunks > 0 then begin
      (* From an emptied minor heap: the loads together allocate less than
         it holds, so no collection lands inside one. *)
      Gc.minor ();
      for _ = 1 to loads_per_burst do
        let text = chunks.(!next_chunk mod Array.length chunks) in
        incr next_chunk;
        let t0 = now () in
        ignore (Database_io.parse_string text);
        Buf.push loads (now () -. t0);
        Buf.push load_block (fi block)
      done
    end
  in
  let r = loop live ~seconds ~renew ~renew_ops:w.Work.epoch_ops ~after_burst ~burst_ops:w.Work.burst_ops in
  let top = (Gc.quick_stat ()).Gc.top_heap_words in
  let finish_ok = !live.Work.finish () in
  (* write_p50_ms: insert/delete requests where the workload has them,
     as the mean of the two kinds' medians — a stream that keeps the
     database level is half inserts and half deletes, and the median of
     such a mixture falls in the gap between the kinds; otherwise the
     median load of a tuple batch. *)
  let kind_p50 k = median_of (lats ~keep:(( = ) (kind_code k)) r) in
  let write_p50 =
    match lats ~keep:writes r with
    | [] ->
      median_of
        (List.init loads.Buf.n (fun k ->
             Buf.get loads k *. Buf.get r.factors (int_of_float (Buf.get load_block k))))
    | _ -> (kind_p50 "insert" +. kind_p50 "delete") /. 2.
  in
  let all = lats r in
  let raw = lats ~raw:true r in
  Printf.eprintf "as measured: op_p50_ms %.4f, op_p90_ms %.4f; host-speed factor median %.3f over %d blocks\n%!"
    (ms *. percentile 0.5 raw) (ms *. percentile 0.9 raw)
    (median_of (List.init r.factors.Buf.n (Buf.get r.factors)))
    r.factors.Buf.n;
  print_result ~correct:(!setups_ok && finish_ok && r.failed = 0) ~attempted:r.attempted
    ~failed:r.failed
    [
      ("setup_s", "s", median_of !setup_times);
      ("ops_per_s", "1/s", ops_per_s r);
      ("op_p50_ms", "ms", ms *. percentile 0.5 all);
      ("op_p90_ms", "ms", ms *. percentile 0.9 all);
      ("write_p50_ms", "ms", ms *. write_p50);
      ("peak_heap_mb", "MB", fi (top * (Sys.word_size / 8)) /. 1048576.);
    ]

(* Trace buckets: every span name an op can contain.  Anything else lands
   in "other", so the buckets plus the uncovered remainder always account
   for the whole op. *)
let buckets =
  [ "parse"; "solve"; "session.question"; "session.enumerate"; "session.witnesses";
    "session.encode"; "session.prep"; "session.struct"; "session.lint"; "eval.witnesses";
    "eval.delta_insert"; "presolve"; "bb.solve"; "pool.batch"; "pool.chunk"; "serve.serialise";
    "serve.handle_line"; "serve.deserialise"; "other" ]

let per_layer (w : Work.t) ~seconds ~spans_file =
  (* Untraced half: ops/s for the overhead share, GC per op. *)
  let warm_ok = warm_up w in
  let live, _, ok0 = set_up w in
  Work.reset_tally ();
  let u = loop (ref live) ~seconds:(seconds /. 2.) ~burst_ops:w.Work.burst_ops in
  let questions_u = Work.tally.Work.questions in
  let ok0 = ok0 && live.Work.finish () in
  (* Traced half: probes, a traced set-up, then the traced ops. *)
  Obs.Sink.install ();
  let probes = List.map probe (w.Work.programs ()) in
  let live, _, ok1 = set_up w in
  Work.reset_tally ();
  let r = loop (ref live) ~seconds:(seconds /. 2.) ~burst_ops:w.Work.burst_ops in
  let nodes = Spans.forest (Obs.Trace.drain ()) in
  Obs.Sink.uninstall ();
  let ok1 = ok1 && live.Work.finish () in
  Option.iter (fun path -> Spans.write path nodes) spans_file;
  (* Self time per bucket over the traced ops. *)
  let self = Hashtbl.create 32 and dur = Hashtbl.create 32 in
  let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k)) in
  let op_time = ref 0. and uncovered = ref 0. and negative = ref false in
  Array.iter
    (fun (n : Spans.node) ->
      if n.Spans.op_of >= 0 then begin
        if n.Spans.self < -1e-9 then negative := true;
        let nm = n.Spans.s.Obs.Trace.name and d = n.Spans.s.Obs.Trace.t1 -. n.Spans.s.Obs.Trace.t0 in
        if nm = "op" then begin
          op_time := !op_time +. d;
          uncovered := !uncovered +. n.Spans.self
        end
        else begin
          add self (if List.mem nm buckets then nm else "other") n.Spans.self;
          add dur nm d
        end
      end)
    nodes;
  let get tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k) in
  let covered = List.fold_left (fun acc b -> acc +. get self b) 0. buckets in
  let adds_up = Float.abs (covered +. !uncovered -. !op_time) <= 1e-6 *. Float.max 1. !op_time in
  let count_spans nm =
    Array.fold_left (fun acc (n : Spans.node) -> if n.Spans.op_of >= 0 && n.Spans.s.Obs.Trace.name = nm then acc + 1 else acc) 0 nodes
  in
  let ops = fi r.attempted in
  let per_op v = ratio v ops in
  let nodes_n = fi (delta r "bb.nodes") and pivots = fi (delta r "simplex.pivots") in
  let bb_self = get self "bb.solve" in
  let cuts = fi Work.tally.Work.cuts in
  let appends = fi (delta r "incremental.appends") and rebuilds = fi (delta r "incremental.rebuilds") in
  let kind_mean code = mean (lats ~raw:true ~keep:(( = ) code) r) in
  let sample_mean k = mean (Option.value ~default:[] (Hashtbl.find_opt Work.samples k)) in
  let pmean f = mean (List.map f probes) in
  let metrics =
    [
      ("relalg.eval.witnesses_ms", "ms", pmean (fun p -> p.eval_ms));
      ("relalg.eval.witnesses", "count", pmean (fun p -> fi p.witnesses));
      ("resilience.encode.ms", "ms", pmean (fun p -> p.encode_ms));
      ("resilience.encode.rows", "count", pmean (fun p -> fi p.rows));
      ("resilience.encode.nnz", "count", pmean (fun p -> fi p.nnz));
      ("lp.presolve.ms", "ms", pmean (fun p -> p.presolve_ms));
      ("lp.presolve.rows_removed", "count", pmean (fun p -> fi p.rows_removed));
      ("lp.struct.analyze_ms", "ms", pmean (fun p -> p.struct_ms));
      ("lp.struct.certified_share", "share", ratio (fi (delta r "solve.certified")) (fi Work.tally.Work.solves));
      ("lp.branch_bound.nodes_per_op", "count", per_op nodes_n);
      ("lp.branch_bound.ms_per_node", "ms", ms *. ratio bb_self nodes_n);
      ("lp.simplex.pivots_per_op", "count", per_op pivots);
      ("lp.simplex.us_per_pivot", "us", 1e6 *. ratio bb_self pivots);
      ("lp.simplex.refactors_per_op", "count", per_op (fi (delta r "simplex.refactors")));
      ("lp.basis.ftran_nnz_frac", "share",
        ratio (fi (delta r "simplex.ftran_nnz")) (fi (delta r "simplex.ftran_len")));
      ("resilience.session.question_ms", "ms",
        ms *. ratio (get dur "session.question") (fi (count_spans "session.question")));
      ("resilience.session.minor_kwords_per_question", "kwords",
        ratio (u.minor_words /. 1e3) (fi questions_u));
      ("resilience.enumerate.cuts_per_op", "count", per_op cuts);
      ("resilience.enumerate.pivots_per_cut", "count", ratio (fi Work.tally.Work.cut_pivots) cuts);
      ("resilience.enumerate.ms_per_cut", "ms", ms *. ratio (get dur "session.enumerate") cuts);
      ("resilience.incremental.insert_ms", "ms", ms *. kind_mean (kind_code "insert"));
      ("resilience.incremental.delete_ms", "ms", ms *. kind_mean (kind_code "delete"));
      ("resilience.incremental.append_share", "share", ratio appends (appends +. rebuilds));
      ("serve.protocol.parse_us", "us", sample_mean "serve.protocol.parse_us");
      ("serve.json.serialise_us", "us",
        1e6 *. ratio (get dur "serve.serialise") (fi (count_spans "serve.serialise")));
      ("serve.engine.cache_hit_share", "share", sample_mean "serve.engine.cache_hit_share");
      ("gc.minor_mwords_per_op", "Mwords", ratio (u.minor_words /. 1e6) (fi u.attempted));
      ("gc.major_collections_per_op", "count", ratio (fi u.major) (fi u.attempted));
      ("trace.overhead_share", "share", 1. -. ratio (ops_per_s r) (ops_per_s u));
      ("trace.op_ms", "ms", ms *. per_op !op_time);
      ("trace.uncovered_ms", "ms", ms *. per_op !uncovered);
    ]
    @ List.map (fun b -> ("trace.self_ms." ^ b, "ms", ms *. per_op (get self b))) buckets
  in
  print_result
    ~correct:(warm_ok && ok0 && ok1 && u.failed = 0 && r.failed = 0 && adds_up && not !negative)
    ~attempted:(u.attempted + r.attempted) ~failed:(u.failed + r.failed) metrics

(* Exact counts for the determinism self-test: two runs of one seed must
   print identical lines. *)
let counts (w : Work.t) ~ops =
  let programs = w.Work.programs () in
  let live, _, ok = set_up w in
  Work.reset_tally ();
  let r = loop ~max_ops:ops (ref live) ~seconds:infinity ~burst_ops:w.Work.burst_ops in
  let t = Work.tally in
  let ints xs = "[" ^ String.concat "," (List.map string_of_int xs) ^ "]" in
  let probes = List.map probe programs in
  Printf.printf
    "{\"fingerprints\": [%s], \"witnesses\": %s, \"rows\": %s, \"ops\": %d, \"failed\": %d, \"first_ok\": %b, \"solves\": %d, \"pivots\": %d, \"nodes\": %d, \"refactors\": %d, \"cuts\": %d, \"cut_pivots\": %d, \"minor_words\": %.0f}\n%!"
    (String.concat ","
       (List.map (fun (p : Work.program) -> Printf.sprintf "\"%016Lx\"" (Database.fingerprint p.Work.db)) programs))
    (ints (List.map (fun p -> p.witnesses) probes))
    (ints (List.map (fun p -> p.rows) probes))
    r.attempted r.failed ok t.Work.solves t.Work.pivots t.Work.nodes t.Work.refactors t.Work.cuts
    t.Work.cut_pivots r.minor_words

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spans = ref "" and count_ops = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--spans", Arg.Set_string spans, "FILE write the traced run's spans here");
      ("--counts", Arg.Set_int count_ops, "K print exact counts of K ops (self-test)");
    ]
    (fun a -> raise (Arg.Bad a))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  | Some make ->
    let w = make ~seed:!seed in
    if !count_ops > 0 then counts w ~ops:!count_ops
    else if !trace = 1 then
      per_layer w ~seconds:!seconds
        ~spans_file:(if !spans = "" then None else Some !spans)
    else end_to_end w ~seconds:!seconds
