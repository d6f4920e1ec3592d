open Relalg

type stats = {
  nodes : int;
  root_lp : float;
  root_integral : bool;
  certified : bool;
  solve_time : float;
  prep_time : float;
  pivots : int;
  refactors : int;
}

(* Certificate-aware dispatch telemetry: solves settled by an integrality
   certificate (no branch-and-bound), and the subset backed by a
   delta-transferable structural witness rather than a per-solve root
   vertex. *)
let c_certified = Obs.Counter.create "solve.certified"
let c_certified_structural = Obs.Counter.create "solve.certified_structural"

(* Enumeration telemetry: no-good cuts appended, optimal sets streamed, and
   enumerations that proved their family complete (final re-solve
   infeasible) rather than stopping on a cap or budget. *)
let c_enum_cuts = Obs.Counter.create "enum.cuts"
let c_enum_solutions = Obs.Counter.create "enum.solutions"
let c_enum_exhausted = Obs.Counter.create "enum.exhausted"

(* Metrics-plane distributions: what the old counters reduce to a single
   sum, kept as full per-solve histograms when a plane is armed. *)
let h_solve_seconds =
  Obs.Metrics.histogram ~help:"Wall seconds per ILP solve (certificate-aware dispatch)"
    "session.solve.seconds"

let h_solve_pivots =
  Obs.Metrics.histogram ~help:"Simplex pivots per ILP solve" "session.solve.pivots"

let h_solve_nodes =
  Obs.Metrics.histogram ~help:"Branch-and-bound nodes per ILP solve" "session.solve.nodes"

type 'a outcome =
  | Solved of 'a
  | Query_false
  | No_contingency
  | Budget_exhausted of int option

type res_answer = { res_value : int; contingency : Database.tuple_id list; res_stats : stats }

type rsp_answer = {
  rsp_value : int;
  responsibility_set : Database.tuple_id list;
  rsp_stats : stats;
}

type strategy = [ `Shared_delta | `Cold_per_tuple ]

type profile = {
  witnesses_s : float;
  encode_s : float;
  lint_s : float;
  prep_s : float;
  solve_s : float;
  questions : int;
}

(* Internal accumulator behind {!profile}.  Phase fields are written when
   the corresponding (lazy) work actually runs; solve fields are summed on
   the submitter as answers come back, so parallel rankings never race on
   it. *)
type acc = {
  mutable a_witnesses : float;
  mutable a_encode : float;
  mutable a_lint : float;
  mutable a_prep : float;
  mutable a_solve : float;
  mutable a_questions : int;
}

let fresh_acc () =
  { a_witnesses = 0.; a_encode = 0.; a_lint = 0.; a_prep = 0.; a_solve = 0.; a_questions = 0 }

(* What the shared program's questions need beyond the engine, built once
   with its prep: the responsibility base delta (Z = 0, every witness
   indicator W = 1) translated into the presolved program — a question
   then releases the indicators of its tuple's witnesses and fixes X_t, in
   the already-translated space — and the tables that read tuples back
   from a sparse answer. *)
type shared_prep = {
  rsp_base : Lp.Frozen.Delta.t;
  rsp_conflicts : Lp.Model.var list;
      (* raw base fixes contradicting a presolve-fixed value: a question is
         infeasible unless it releases all of them *)
  raw_of : int array;  (* presolved variable -> raw variable *)
  forced : Lp.Model.var list;  (* raw tuple variables presolve fixed to 1 *)
}

(* Solver state over one frozen program: the presolved form (what per-domain
   engines are created from), the presolve witness, the submitter's own
   warm engine, and the structural integrality certificate.  The
   certificate and the shared-question tables are computed eagerly with the
   prep (NOT lazily: preps are shared across the domains of a parallel
   ranking, and [Lazy.force] is not domain-safe); the certificate's
   witnesses are delta-transferable, so one analysis covers every
   delta-solve of the session. *)
type prep = {
  pfz : Lp.Frozen.t;
  pvm : Lp.Presolve.vmap option;
  pengine : Lp.Solvers.Engine.t;
  pcert : Lp.Struct.t;
  pshared : shared_prep option;  (* the session's shared program only *)
}

(* Where a raw variable went: renumbered into the presolved program or
   fixed by presolve. *)
let image vm v = match vm with Some vm -> Lp.Presolve.var_image vm v | None -> `Kept v

(* The raw base delta's presolve translation, keeping the conflicting raw
   variables instead of failing on the first (see [translate]). *)
let translate_base vm delta =
  List.fold_left
    (fun (d, conflicts) (v, k) ->
      match image vm v with
      | `Kept j -> (Lp.Frozen.Delta.fix j k d, conflicts)
      | `Fixed k' -> if k' = k then (d, conflicts) else (d, v :: conflicts))
    (Lp.Frozen.Delta.empty, [])
    (Lp.Frozen.Delta.bindings delta)

(* [tid_of_var] maps a raw variable to its tuple, -1 for the others. *)
let shared_prep_of ~rsp_base ~tid_of_var vm fz =
  let rsp_base, rsp_conflicts = translate_base vm rsp_base in
  let raw_of = Array.make (Lp.Frozen.num_vars fz) 0 in
  let forced = ref [] in
  for v = Array.length tid_of_var - 1 downto 0 do
    match image vm v with
    | `Kept j -> raw_of.(j) <- v
    | `Fixed k -> if k > 0 && tid_of_var.(v) >= 0 then forced := v :: !forced
  done;
  { rsp_base; rsp_conflicts; raw_of; forced = !forced }

(* Freeze + (optionally) presolve a model into a prep; [None] when presolve
   decides the program outright (the shared program is always feasible —
   delete everything, flag everything — and has non-negative costs, so a
   verdict to the contrary is treated as "no contingency" defensively).
   [shared] (the raw responsibility base delta and the variable -> tuple
   table) marks the session's shared program. *)
let prep_of_model ?shared ~exact ~presolve ~kernel model =
  let raw = Lp.Frozen.of_model model in
  let prepared =
    if presolve then
      match Lp.Presolve.presolve raw with
      | Lp.Presolve.Reduced (fz, vm) -> Some (fz, Some vm)
      | Lp.Presolve.Infeasible | Lp.Presolve.Unbounded -> None
    else Some (raw, None)
  in
  Option.map
    (fun (fz, vm) ->
      {
        pfz = fz;
        pvm = vm;
        pengine = Lp.Solvers.Engine.create ~exact ~kernel fz;
        pcert = Obs.Trace.with_span "session.struct" (fun () -> Lp.Struct.analyze fz);
        pshared =
          Option.map
            (fun (rsp_base, tid_of_var) -> shared_prep_of ~rsp_base ~tid_of_var vm fz)
            shared;
      })
    prepared

type core = {
  cshared : Encode.shared;
  cwitnesses_of : (Database.tuple_id, Lp.Model.var list) Hashtbl.t;
      (* tuple -> the indicators of the witnesses containing it, each once *)
  crsp_base : Lp.Frozen.Delta.t;  (* raw: Z = 0 and every W = 1 *)
  ctid_of_var : int array;  (* raw variable -> its tuple, -1 for the others *)
  cprep : prep option Lazy.t;
      (* presolve + engine, paid only if a shared-program solve happens —
         a dense-regime session that only ever ranks never forces this *)
  cdiags : Lp.Lint.diag list Lazy.t;  (* lint of the unreduced frozen program *)
}

type state = Sfalse | Snone | Sactive of core

(* What a per-tuple question reads, built once with the core: the index from
   a tuple to the indicators of the witnesses containing it (each once,
   even when a self-join witness holds the tuple twice), the raw
   responsibility base delta (Z = 0, every W = 1), and the table from a raw
   variable to its tuple. *)
let question_tables (shared : Encode.shared) =
  let witnesses_of = Hashtbl.create 64 in
  List.iter
    (fun (wv, set) ->
      List.iter
        (fun t ->
          match Hashtbl.find_opt witnesses_of t with
          | Some (w :: _) when w = wv -> ()
          | Some ws -> Hashtbl.replace witnesses_of t (wv :: ws)
          | None -> Hashtbl.replace witnesses_of t [ wv ])
        set)
    shared.Encode.switnesses;
  let rsp_base =
    List.fold_left
      (fun d (wv, _) -> Lp.Frozen.Delta.force_one wv d)
      (Lp.Frozen.Delta.fix_zero shared.Encode.sz Lp.Frozen.Delta.empty)
      shared.Encode.switnesses
  in
  let tid_of_var = Array.make (Lp.Model.num_vars shared.Encode.smodel) (-1) in
  List.iter (fun (v, tid) -> tid_of_var.(v) <- tid) shared.Encode.stuple_of_var;
  (witnesses_of, rsp_base, tid_of_var)

type t = {
  sdb : Database.t;
  ssem : Problem.semantics;
  squery : Cq.t;
  switnesses : Eval.witness list;
  sexact : bool;
  spresolve : bool;
  sbasis : Lp.Basis.choice;
  srelax : Encode.relaxation;
  sstrategy : strategy;
  state : state;
  sacc : acc;
}

(* Re-measured with the sparse LU kernel (BENCH.md, PR 7): the shared
   batch now wins at every measured size of the dense q2_chain family —
   2.0x at 2.6k rows, 3.8x at 5.1k, 4.2x at 10.3k — where the dense
   inverse lost from ~1.9k rows on (the PR 3 crossover behind the old
   1700 default).  No crossover was observed up to ~10^4 rows; the
   threshold now only guards the regime beyond what was measured. *)
let default_dense_rows_threshold = 10_000

let create ?(exact = false) ?(presolve = true) ?(relaxation = Encode.Ilp) ?(basis = `Auto)
    ?(dense_rows_threshold = default_dense_rows_threshold) ?witnesses semantics q db =
  let acc = fresh_acc () in
  let tw0 = Lp.Clock.now () in
  let witnesses =
    match witnesses with
    | Some ws -> ws  (* caller-maintained (incremental service); skip the join *)
    | None -> Obs.Trace.with_span "session.witnesses" (fun () -> Eval.witnesses q db)
  in
  acc.a_witnesses <- Lp.Clock.elapsed tw0;
  let te0 = Lp.Clock.now () in
  let state, strategy =
    Obs.Trace.with_span "session.encode" (fun () ->
        match Encode.shared_of_witnesses relaxation semantics q db witnesses with
        | Encode.Shared_trivial -> (Sfalse, `Shared_delta)
        | Encode.Shared_impossible -> (Snone, `Shared_delta)
        | Encode.Shared shared ->
          let raw = Lp.Frozen.of_model shared.Encode.smodel in
          let strategy =
            if Lp.Frozen.num_rows raw > dense_rows_threshold then `Cold_per_tuple
            else `Shared_delta
          in
          let witnesses_of, rsp_base, tid_of_var = question_tables shared in
          ( Sactive
              {
                cshared = shared;
                cwitnesses_of = witnesses_of;
                crsp_base = rsp_base;
                ctid_of_var = tid_of_var;
                cprep =
                  (* Timed inside the thunk so the cost lands on whichever
                     question actually forces the shared prep. *)
                  lazy
                    (Obs.Trace.with_span "session.prep" (fun () ->
                         let t0 = Lp.Clock.now () in
                         let p =
                           prep_of_model ~shared:(rsp_base, tid_of_var) ~exact ~presolve
                             ~kernel:basis shared.Encode.smodel
                         in
                         acc.a_prep <- acc.a_prep +. Lp.Clock.elapsed t0;
                         p));
                cdiags =
                  lazy
                    (Obs.Trace.with_span "session.lint" (fun () ->
                         let t0 = Lp.Clock.now () in
                         let d = Lp.Lint.lint raw in
                         acc.a_lint <- acc.a_lint +. Lp.Clock.elapsed t0;
                         d));
              },
            strategy ))
  in
  acc.a_encode <- Lp.Clock.elapsed te0;
  {
    sdb = db;
    ssem = semantics;
    squery = q;
    switnesses = witnesses;
    sexact = exact;
    spresolve = presolve;
    sbasis = basis;
    srelax = relaxation;
    sstrategy = strategy;
    state;
    sacc = acc;
  }

let batch_strategy t = t.sstrategy

(* --- Delta plumbing ------------------------------------------------------- *)

(* Deltas are phrased against the raw shared program; [translate] renumbers
   them into the presolved one.  A fix conflicting with a presolve-fixed
   value means the combination is infeasible (presolve only fixes what
   feasibility forces on this model family). *)
let translate vm delta =
  match translate_base vm delta with d, [] -> Some d | _, _ :: _ -> None

(* Appended rows (the enumeration pin and no-good cuts are phrased against
   raw shared-model variables, like the bound fixes) are renumbered through
   the presolve witness too: kept variables map to their reduced index,
   eliminated variables fold their fixed value into the right-hand side.  A
   row whose left-hand side vanishes entirely is checked as a constant —
   dropped when satisfied, the whole delta infeasible otherwise.  The
   translation is deterministic row by row, so a monotone chain of raw
   appends translates to a monotone chain of reduced appends and the warm
   engine still absorbs each new cut as a basis-intact suffix
   ([Frozen.Delta.extends] compares structurally). *)
let translate_row vm (sense, rhs, expr) =
  let entries, rhs =
    List.fold_left
      (fun (es, rhs) (v, c) ->
        match Lp.Presolve.var_image vm v with
        | `Kept j -> ((j, c) :: es, rhs)
        | `Fixed k -> (es, rhs - (c * k)))
      ([], rhs) expr
  in
  match List.sort (fun (a, _) (b, _) -> compare a b) entries with
  | [] ->
    let sat =
      match sense with
      | Lp.Model.Leq -> 0 <= rhs
      | Lp.Model.Geq -> 0 >= rhs
      | Lp.Model.Eq -> rhs = 0
    in
    if sat then `Drop else `Infeasible
  | entries -> `Row (sense, rhs, entries)

let translate_full vm delta =
  match vm with
  | None -> Some delta
  | Some vm_ -> (
    match translate vm delta with
    | None -> None
    | Some d ->
      List.fold_left
        (fun acc row ->
          match acc with
          | None -> None
          | Some d -> (
            match translate_row vm_ row with
            | `Drop -> Some d
            | `Infeasible -> None
            | `Row (sense, rhs, entries) ->
              Some (Lp.Frozen.Delta.append_row sense rhs entries d)))
        (Some d)
        (Lp.Frozen.Delta.appended_rows delta))

let offset_of vm = match vm with Some vm -> Lp.Presolve.obj_offset vm | None -> 0

let lift_sol vm ~of_int sol =
  match vm with Some vm -> Lp.Presolve.lift vm ~of_int sol | None -> sol

(* Witness indicators fixed to 1, counterfactual slack released. *)
let res_delta core = Lp.Frozen.Delta.force_one core.cshared.Encode.sz core.crsp_base

(* The raw responsibility delta: X_t = 0, Z = 0 and the indicator of every
   witness avoiding t fixed to 1 — the base with t's witnesses released.
   [None]: t appears in no witness. *)
let rsp_delta core t =
  Option.map
    (fun ws ->
      let d = List.fold_left (fun d wv -> Lp.Frozen.Delta.release wv d) core.crsp_base ws in
      match Hashtbl.find_opt core.cshared.Encode.svar_of_tuple t with
      | Some v -> Lp.Frozen.Delta.fix_zero v d
      | None -> d (* exogenous tuple: it never had a decision variable *))
    (Hashtbl.find_opt core.cwitnesses_of t)

(* The same delta built directly in the presolved program from the
   translated base: O(deg t) map updates per question, where translating
   [rsp_delta] would walk every witness. *)
let rsp_question ~witnesses_of (shared : Encode.shared) ~base ~conflicts vm t =
  match Hashtbl.find_opt witnesses_of t with
  | None -> `No_witness
  | Some ws ->
    if not (List.for_all (fun v -> List.mem v ws) conflicts) then `Infeasible
    else begin
      let d =
        List.fold_left
          (fun d wv ->
            match image vm wv with `Kept j -> Lp.Frozen.Delta.release j d | `Fixed _ -> d)
          base ws
      in
      match Hashtbl.find_opt shared.Encode.svar_of_tuple t with
      | None -> `Delta d
      | Some v -> (
        match image vm v with
        | `Kept j -> `Delta (Lp.Frozen.Delta.fix_zero j d)
        | `Fixed 0 -> `Delta d
        | `Fixed _ -> `Infeasible)
    end

(* --- Solving -------------------------------------------------------------- *)

(* An answer's solution, in the presolved program: the relaxation's sparse
   read-out together with the delta it solved (certified answers), or a
   branch-and-bound incumbent. *)
type solution = Sparse of Lp.Frozen.Delta.t * Lp.Solvers.Engine.relaxation | Dense of float array

(* The full solution over the raw program's variables. *)
let dense_solution prep = function
  | Dense x -> lift_sol prep.pvm ~of_int:float_of_int x
  | Sparse (d, r) ->
    lift_sol prep.pvm ~of_int:float_of_int
      (Lp.Solvers.Float_simplex.point ~nvars:(Lp.Frozen.num_vars prep.pfz) d
         r.Lp.Solvers.Float_bb.support r.Lp.Solvers.Float_bb.values)

(* The deleted tuples (value > 0.5) in raw-variable order.  A sparse answer
   is read from its support, the delta's positive fixes and presolve's
   forced deletions, never touching the variables at zero. *)
let read_tuples core prep sol =
  match (sol, prep.pshared) with
  | Sparse (d, r), Some sp ->
    let values = r.Lp.Solvers.Float_bb.values in
    let deleted = ref sp.forced in
    let note j =
      let v = sp.raw_of.(j) in
      if core.ctid_of_var.(v) >= 0 then deleted := v :: !deleted
    in
    Lp.Frozen.Delta.iter_fixes (fun j k -> if k > 0 then note j) d;
    Array.iteri (fun k j -> if values.(k) > 0.5 then note j) r.Lp.Solvers.Float_bb.support;
    let deleted = Array.of_list !deleted in
    Array.sort compare deleted;
    Array.fold_right (fun v acc -> core.ctid_of_var.(v) :: acc) deleted []
  | _ ->
    let x = dense_solution prep sol in
    List.filter_map
      (fun (v, tid) -> if x.(v) > 0.5 then Some tid else None)
      core.cshared.Encode.stuple_of_var

(* Certificate-aware dispatch + branch-and-bound under the delta against
   [engine] — the submitter's warm engine on the sequential paths, a
   per-domain engine over the same frozen arrays on the parallel ones, a
   fresh one on the cold paths of {!solve_model}.

   Every solve is relax-first: one warm-started LP relaxation under the
   delta.  When its optimum is integral on the integer variables it {e is}
   the ILP optimum (an integral feasible point meeting the LP lower bound)
   — the solve is settled by that root-vertex certificate with {e zero}
   branch-and-bound nodes, [certified = true].  This is guaranteed, not
   luck, whenever the session's structural certificate holds: structural
   witnesses survive delta bound fixes, so one [Lp.Struct.analyze] covers
   every question the session answers.  Otherwise branch-and-bound runs as
   before, warm-started from the relaxation's final basis (the root
   re-solve costs a handful of pivots), so hard instances pay essentially
   nothing for the probe. *)
let run_engine_raw ?node_limit ?time_limit prep engine translated =
  let t0 = Lp.Clock.now () in
  match translated with
  | None -> `Infeasible
  | Some d -> (
    let foffset = float_of_int (offset_of prep.pvm) in
    let finish ?(certified = false) nodes root_lp root_integral pivots refactors objective
        solution =
      let solve_time = Lp.Clock.elapsed t0 in
      if certified then begin
        Obs.Counter.incr c_certified;
        if Lp.Struct.structural prep.pcert then Obs.Counter.incr c_certified_structural
      end;
      ( objective,
        solution,
        { nodes; root_lp; root_integral; certified; solve_time; prep_time = 0.; pivots; refactors }
      )
    in
    match Lp.Solvers.Engine.relax ~delta:d engine with
    | `Optimal r, work when r.Lp.Solvers.Float_bb.integral ->
      let obj = r.Lp.Solvers.Float_bb.objective +. foffset in
      `Ok
        (finish ~certified:true 0 obj true work.Lp.Branch_bound.pivots
           work.Lp.Branch_bound.refactors obj (Sparse (d, r)))
    | (`Optimal _ | `Infeasible), work -> (
      let r = Lp.Solvers.Engine.solve ?node_limit ?time_limit ~delta:d engine in
      let root = match r.root_objective with Some o -> o +. foffset | None -> nan in
      (* The question's simplex work: the relaxation probe plus the tree. *)
      let pivots = work.Lp.Branch_bound.pivots + r.pivots in
      let refactors = work.Lp.Branch_bound.refactors + r.refactors in
      match r.status with
      | Optimal ->
        `Ok
          (finish r.nodes root r.root_integral pivots refactors
             (Option.get r.objective +. foffset)
             (Dense (Option.get r.solution)))
      | Infeasible -> `Infeasible
      | Feasible -> `Budget (Option.map (fun o -> o +. foffset) r.objective)
      | Limit_no_solution -> `Budget None))

(* One run-log line: the solved program's structural feature vector, the
   dispatch path taken, and the outcome, versioned by the run-log
   header. *)
let runlog_solve_fields ~op ~status ~path:dispatch ~cert ?stats:st ~wall () =
  let f = cert.Lp.Struct.features in
  let sti g = match st with Some s -> g s | None -> 0 in
  let open Obs.Runlog in
  [
    ("op", S op);
    ("status", S status);
    ("path", S dispatch);
    ("verdict", S (Lp.Struct.verdict_name cert));
    ("structural", B (Lp.Struct.structural cert));
    ("rows", I f.Lp.Struct.rows);
    ("cols", I f.Lp.Struct.cols);
    ("nnz", I f.Lp.Struct.nnz);
    ("unit_coeffs", B f.Lp.Struct.unit_coeffs);
    ("zero_one", B f.Lp.Struct.zero_one);
    ("neg_entries", I f.Lp.Struct.neg_entries);
    ("max_col_nnz", I f.Lp.Struct.max_col_nnz);
    ("max_row_nnz", I f.Lp.Struct.max_row_nnz);
    ("avg_col_nnz", F f.Lp.Struct.avg_col_nnz);
    ("geq_rows", I f.Lp.Struct.geq_rows);
    ("leq_rows", I f.Lp.Struct.leq_rows);
    ("eq_rows", I f.Lp.Struct.eq_rows);
    ("certified", B (match st with Some s -> s.certified | None -> false));
    ("nodes", I (sti (fun s -> s.nodes)));
    ("pivots", I (sti (fun s -> s.pivots)));
    ("refactors", I (sti (fun s -> s.refactors)));
    ("root_lp", F (match st with Some s -> s.root_lp | None -> nan));
    ("solve_s", F (match st with Some s -> s.solve_time | None -> wall));
    ("wall_s", F wall);
  ]

(* Instrumentation wrapper around every engine solve: one observation per
   metrics-plane distribution and one run-log record per solve — the
   session's [Lp.Struct] feature vector alongside the dispatch path taken
   and the outcome, i.e. one line of the portfolio training corpus.  With
   nothing armed this is the raw solve plus two atomic loads. *)
let run_engine ?node_limit ?time_limit ?(op = "solve") prep engine delta =
  if not (Obs.Sink.recording () || Obs.Runlog.enabled ()) then
    run_engine_raw ?node_limit ?time_limit prep engine delta
  else begin
    let t0 = Lp.Clock.now () in
    let r = run_engine_raw ?node_limit ?time_limit prep engine delta in
    let wall = Lp.Clock.elapsed t0 in
    (match r with
    | `Ok (_, _, st) ->
      Obs.Metrics.observe h_solve_seconds st.solve_time;
      Obs.Metrics.observe h_solve_pivots (float_of_int st.pivots);
      Obs.Metrics.observe h_solve_nodes (float_of_int st.nodes)
    | `Infeasible | `Budget _ -> ());
    Obs.Runlog.record (fun () ->
        let status, path, st =
          match r with
          | `Ok (_, _, st) -> ("optimal", (if st.certified then "certified" else "bb"), Some st)
          | `Infeasible -> ("infeasible", "relax", None)
          | `Budget _ -> ("budget", "bb", None)
        in
        runlog_solve_fields ~op ~status ~path ~cert:prep.pcert ?stats:st ~wall ());
    r
  end

let round_value x = int_of_float (Float.round x)

(* Submitter-side profile accounting.  Worker domains never touch the
   accumulator: parallel rankings fold their per-answer stats in here, on
   the submitting domain, after the batch has drained. *)
let note_question t = t.sacc.a_questions <- t.sacc.a_questions + 1

let note_stats t st =
  t.sacc.a_solve <- t.sacc.a_solve +. st.solve_time;
  t.sacc.a_prep <- t.sacc.a_prep +. st.prep_time

let resilience_body ?node_limit ?time_limit t =
  match t.state with
  | Sfalse -> Query_false
  | Snone -> No_contingency
  | Sactive core -> (
    match Lazy.force core.cprep with
    | None -> No_contingency
    | Some prep -> (
      match
        run_engine ?node_limit ?time_limit ~op:"resilience" prep prep.pengine
          (translate_full prep.pvm (res_delta core))
      with
      | `Infeasible -> No_contingency
      | `Budget incumbent -> Budget_exhausted (Option.map round_value incumbent)
      | `Ok (obj, sol, st) ->
        Solved
          { res_value = round_value obj; contingency = read_tuples core prep sol; res_stats = st }))

let resilience ?node_limit ?time_limit t =
  note_question t;
  let outcome = resilience_body ?node_limit ?time_limit t in
  (match outcome with
  | Solved a -> note_stats t a.res_stats
  | Query_false | No_contingency | Budget_exhausted _ -> ());
  outcome

(* The shared-program responsibility delta-solve. *)
let rsp_shared ?node_limit ?time_limit core prep engine tid =
  let solve translated =
    match run_engine ?node_limit ?time_limit ~op:"responsibility" prep engine translated with
    | `Infeasible -> No_contingency
    | `Budget incumbent -> Budget_exhausted (Option.map round_value incumbent)
    | `Ok (obj, sol, st) ->
      Solved
        {
          rsp_value = round_value obj;
          responsibility_set = read_tuples core prep sol;
          rsp_stats = st;
        }
  in
  match prep.pshared with
  | None -> No_contingency
  | Some sp -> (
    match
      rsp_question ~witnesses_of:core.cwitnesses_of core.cshared ~base:sp.rsp_base
        ~conflicts:sp.rsp_conflicts prep.pvm tid
    with
    | `No_witness -> No_contingency
    | `Infeasible -> solve None
    | `Delta d -> solve (Some d))

let solve_model ?node_limit ?time_limit ~op ~exact ~presolve ~kernel ~since model =
  match prep_of_model ~exact ~presolve ~kernel model with
  | None -> `Infeasible
  | Some prep -> (
    (* Everything up to here — freeze, presolve, analysis, engine build, and
       whatever the caller did since [since] — is preparation, not solving;
       stats keep the two apart. *)
    let prep_time = Lp.Clock.elapsed since in
    match run_engine ?node_limit ?time_limit ~op prep prep.pengine (Some Lp.Frozen.Delta.empty) with
    | `Ok (obj, sol, st) -> `Ok (obj, dense_solution prep sol, { st with prep_time })
    | (`Infeasible | `Budget _) as r -> r)

(* The cold per-tuple path the dense regime falls back to: a fresh
   ILP[RSP*](t) encoding, freeze, presolve and branch-and-bound per tuple —
   what Solve.responsibility runs, minus the witness re-enumeration (the
   session already owns the witness list).  Reads only immutable session
   state and the database, so parallel rankings run it from many domains. *)
let cold_responsibility ?node_limit ?time_limit t tid =
  let since = Lp.Clock.now () in
  match Encode.rsp_of_witnesses t.srelax t.ssem t.squery t.sdb t.switnesses tid with
  | Encode.Trivial _ -> Query_false
  | Encode.Impossible -> No_contingency
  | Encode.Encoded enc -> (
    match
      solve_model ?node_limit ?time_limit ~op:"responsibility" ~exact:t.sexact
        ~presolve:t.spresolve ~kernel:t.sbasis ~since enc.Encode.model
    with
    | `Infeasible -> No_contingency
    | `Budget incumbent -> Budget_exhausted (Option.map round_value incumbent)
    | `Ok (obj, sol, st) ->
      Solved
        { rsp_value = round_value obj; responsibility_set = Encode.contingency enc sol; rsp_stats = st })

let responsibility_body ?node_limit ?time_limit t tid =
  match t.state with
  | Sfalse -> Query_false
  | Snone -> No_contingency
  | Sactive core -> (
    match t.sstrategy with
    | `Cold_per_tuple ->
      (* Skip tuples outside every witness without an encode, as the shared
         path does. *)
      if not (Hashtbl.mem core.cwitnesses_of tid) then No_contingency
      else cold_responsibility ?node_limit ?time_limit t tid
    | `Shared_delta -> (
      match Lazy.force core.cprep with
      | None -> No_contingency
      | Some prep -> rsp_shared ?node_limit ?time_limit core prep prep.pengine tid))

let responsibility ?node_limit ?time_limit t tid =
  note_question t;
  let outcome = responsibility_body ?node_limit ?time_limit t tid in
  (match outcome with
  | Solved a -> note_stats t a.rsp_stats
  | Query_false | No_contingency | Budget_exhausted _ -> ());
  outcome

(* Endogenous witness tuples, in database order — exactly the tuples a
   ranking solves for.  Everything else is skipped without a solve
   (exogenous tuples cannot be explanations, and a tuple outside every
   witness cannot be counterfactual). *)
let candidates core db =
  Database.tuples db
  |> List.filter_map (fun info ->
         let tid = info.Database.id in
         if Hashtbl.mem core.cshared.Encode.svar_of_tuple tid then Some tid else None)

(* Ranking accounting: each candidate counts as one question; solved
   answers contribute their solve/prep time.  Runs on the submitter. *)
let record_rankings t outcomes =
  List.iter
    (fun (_, o) ->
      note_question t;
      match o with
      | Solved a -> note_stats t a.rsp_stats
      | Query_false | No_contingency | Budget_exhausted _ -> ())
    outcomes;
  outcomes

let merge_ranking outcomes =
  outcomes
  |> List.filter_map (fun (tid, outcome) ->
         match outcome with
         | Solved a ->
           let k = a.rsp_value in
           Some (tid, k, 1.0 /. (1.0 +. float_of_int k))
         | Query_false | No_contingency | Budget_exhausted _ -> None)
  |> List.stable_sort (fun (_, a, _) (_, b, _) -> compare a b)

let ranking ?node_limit ?time_limit t =
  match t.state with
  | Sfalse | Snone -> []
  | Sactive core ->
    let solve_one =
      match t.sstrategy with
      | `Cold_per_tuple -> fun tid -> cold_responsibility ?node_limit ?time_limit t tid
      | `Shared_delta -> (
        match Lazy.force core.cprep with
        | None -> fun _ -> No_contingency
        | Some prep -> fun tid -> rsp_shared ?node_limit ?time_limit core prep prep.pengine tid)
    in
    merge_ranking
      (record_rankings t (List.map (fun tid -> (tid, solve_one tid)) (candidates core t.sdb)))

let ranking_par ?node_limit ?time_limit ?(jobs = 0) t =
  let jobs = if jobs = 0 then Lp.Pool.default_jobs () else jobs in
  (* jobs = 1 still routes through the pool (its sequential fast path), so
     the telemetry a ranking emits has the same shape at every job count. *)
  match t.state with
  | Sfalse | Snone -> []
  | Sactive core ->
    let cands = Array.of_list (candidates core t.sdb) in
    let tasks = Array.length cands in
    if tasks = 0 then []
    else begin
      let outcomes =
        match t.sstrategy with
        | `Cold_per_tuple ->
          (* Every task is a self-contained cold solve against read-only
             session state. *)
          Lp.Pool.with_pool ~jobs (fun pool ->
              Lp.Pool.run pool ~tasks (fun i ->
                  cold_responsibility ?node_limit ?time_limit t cands.(i)))
        | `Shared_delta -> (
          match Lazy.force core.cprep with
          | None -> Array.make tasks No_contingency
          | Some prep ->
            (* Each participating domain opens its own warm engine against
               the shared presolved frozen arrays and drains a chunk of
               per-tuple delta-solves. *)
            Lp.Pool.with_pool ~jobs (fun pool ->
                Lp.Pool.run_init pool
                  ~init:(fun () -> Lp.Solvers.Engine.create ~exact:t.sexact ~kernel:t.sbasis prep.pfz)
                  ~tasks
                  (fun engine i ->
                    rsp_shared ?node_limit ?time_limit core prep engine cands.(i))))
      in
      merge_ranking
        (record_rankings t
           (List.mapi (fun i outcome -> (cands.(i), outcome)) (Array.to_list outcomes)))
    end

(* --- Solution enumeration -------------------------------------------------- *)

(* The pin row's left-hand side: every weighted tuple variable of the raw
   shared program (witness indicators and the slack carry no weight), which
   by construction is exactly the objective — so [sum w_t X(t) <= OPT]
   confines every later solve to the optimal face. *)
let enum_pin_expr t core =
  Enumerate.pin_expr
    (List.map
       (fun (v, tid) -> (v, Problem.weight t.ssem (Database.tuple t.sdb tid)))
       core.cshared.Encode.stuple_of_var)

(* One warm ILP solve under the delta, shaped for [Enumerate.drive]: the
   cut chain grows monotonically on one engine, so each re-solve absorbs
   only the newest row and restarts from the previous optimal basis. *)
let enum_run ?node_limit core prep engine time_left delta =
  let time_limit =
    match time_left with Some l -> Some (Float.max l 0.) | None -> None
  in
  match
    run_engine ?node_limit ?time_limit ~op:"enumerate" prep engine
      (translate_full prep.pvm delta)
  with
  | `Infeasible -> `Infeasible
  | `Budget _ -> `Budget
  | `Ok (obj, sol, st) ->
    `Ok (round_value obj, read_tuples core prep sol, (st.nodes, st.pivots, st.refactors))

let var_of_tuple core tid = Hashtbl.find_opt core.cshared.Encode.svar_of_tuple tid

(* Parallel enumeration by disjoint seed-split on the first optimum
   S0 = {s_1 < ... < s_k} (Lawler/Murty partition): subspace i keeps
   s_1..s_{i-1}, drops s_i — bound fixes, not cuts.  Any other optimal set
   is no superset of S0 (equal weight, weights >= 1), so it misses some
   s_i and lands in exactly the subspace of the first one it misses; the
   subspaces are pairwise disjoint and none contains S0 itself.  Each
   subspace runs its own pinned cut chain on a fresh warm engine over the
   shared frozen arrays; the merge is concatenation + canonical sort, so
   an exhausted enumeration is identical at every job count. *)
let enum_par ?node_limit ?time_limit ?cap ~jobs t core prep ~pin ~cut base =
  let t0 = Lp.Clock.now () in
  match enum_run ?node_limit core prep prep.pengine time_limit base with
  | `Infeasible -> `Infeasible
  | `Budget -> `Budget
  | `Ok (opt, s0, (n0, p0, r0)) ->
    let s0 = List.sort compare s0 in
    if s0 = [] then
      `Family
        Enumerate.
          {
            opt;
            sets = [ [] ];
            exhausted = true;
            fstats =
              {
                cuts = 0;
                solves = 1;
                nodes = n0;
                first_pivots = p0;
                cut_pivots = 0;
                refactors = r0;
                time = Lp.Clock.elapsed t0;
              };
          }
    else begin
      let seeds = Array.of_list s0 in
      let k = Array.length seeds in
      let fix tid f d =
        match var_of_tuple core tid with Some v -> f v d | None -> d
      in
      let results =
        Lp.Pool.with_pool ~jobs (fun pool ->
            Lp.Pool.run pool ~tasks:k (fun i ->
                let engine = Lp.Solvers.Engine.create ~exact:t.sexact ~kernel:t.sbasis prep.pfz in
                let sub = ref base in
                for j = 0 to i - 1 do
                  sub := fix seeds.(j) Lp.Frozen.Delta.force_one !sub
                done;
                sub := fix seeds.(i) Lp.Frozen.Delta.fix_zero !sub;
                Enumerate.collect ?cap ?time_limit ~t0 ~opt ~cut
                  ~run:(enum_run ?node_limit core prep engine)
                  ~seen:[] (pin opt !sub)))
      in
      let sets = ref [ s0 ] and exhausted = ref true in
      let cuts = ref 0 and solves = ref 1 and nodes = ref n0 in
      let cut_pivots = ref 0 and refactors = ref r0 in
      Array.iter
        (fun (ss, ex, (c, s, n, p, r)) ->
          sets := ss @ !sets;
          exhausted := !exhausted && ex;
          cuts := !cuts + c;
          solves := !solves + s;
          nodes := !nodes + n;
          cut_pivots := !cut_pivots + p;
          refactors := !refactors + r)
        results;
      `Family
        Enumerate.
          {
            opt;
            sets = canonical !sets;
            exhausted = !exhausted;
            fstats =
              {
                cuts = !cuts;
                solves = !solves;
                nodes = !nodes;
                first_pivots = p0;
                cut_pivots = !cut_pivots;
                refactors = !refactors;
                time = Lp.Clock.elapsed t0;
              };
          }
    end

let enum_question ?node_limit ?time_limit ?cap ~jobs t core prep base =
  Obs.Trace.with_span "session.enumerate" (fun () ->
      let pin opt d =
        Lp.Frozen.Delta.append_row Lp.Model.Leq opt (enum_pin_expr t core) d
      in
      let cut = Enumerate.no_good (var_of_tuple core) in
      let result =
        if jobs <= 1 then
          Enumerate.drive ?cap ?time_limit ~pin ~cut
            ~run:(enum_run ?node_limit core prep prep.pengine)
            base
        else enum_par ?node_limit ?time_limit ?cap ~jobs t core prep ~pin ~cut base
      in
      match result with
      | `Infeasible -> No_contingency
      | `Budget -> Budget_exhausted None
      | `Family fam ->
        Obs.Counter.add c_enum_cuts fam.Enumerate.fstats.Enumerate.cuts;
        Obs.Counter.add c_enum_solutions (List.length fam.Enumerate.sets);
        if fam.Enumerate.exhausted then Obs.Counter.incr c_enum_exhausted;
        t.sacc.a_solve <- t.sacc.a_solve +. fam.Enumerate.fstats.Enumerate.time;
        Solved fam)

let enumerate_resilience ?node_limit ?time_limit ?(jobs = 1) ?cap t =
  let jobs = if jobs = 0 then Lp.Pool.default_jobs () else jobs in
  note_question t;
  match t.state with
  | Sfalse -> Query_false
  | Snone -> No_contingency
  | Sactive core -> (
    match Lazy.force core.cprep with
    | None -> No_contingency
    | Some prep ->
      enum_question ?node_limit ?time_limit ?cap ~jobs t core prep (res_delta core))

let enumerate_responsibility ?node_limit ?time_limit ?(jobs = 1) ?cap t tid =
  let jobs = if jobs = 0 then Lp.Pool.default_jobs () else jobs in
  note_question t;
  match t.state with
  | Sfalse -> Query_false
  | Snone -> No_contingency
  | Sactive core -> (
    match Lazy.force core.cprep with
    | None -> No_contingency
    | Some prep -> (
      match rsp_delta core tid with
      | None -> No_contingency
      | Some base -> enum_question ?node_limit ?time_limit ?cap ~jobs t core prep base))

(* --- Relaxation views ----------------------------------------------------- *)

let read_values core sol =
  List.map (fun (v, tid) -> (tid, sol.(v))) core.cshared.Encode.stuple_of_var

let relax_run core prep delta =
  match translate prep.pvm delta with
  | None -> None
  | Some d ->
    match Lp.Solvers.Engine.relax ~delta:d prep.pengine with
    | `Optimal r, _ ->
      Some
        ( r.Lp.Solvers.Float_bb.objective +. float_of_int (offset_of prep.pvm),
          read_values core (dense_solution prep (Sparse (d, r))) )
    | `Infeasible, _ -> None

let resilience_solution t =
  match t.state with
  | Sfalse | Snone -> None
  | Sactive core -> (
    match Lazy.force core.cprep with
    | None -> None
    | Some prep -> relax_run core prep (res_delta core))

let responsibility_solution t tid =
  match t.state with
  | Sfalse | Snone -> None
  | Sactive core -> (
    match Lazy.force core.cprep with
    | None -> None
    | Some prep -> (
      match rsp_delta core tid with
      | None -> None
      | Some delta -> (
        match run_engine ~op:"solution" prep prep.pengine (translate_full prep.pvm delta) with
        | `Infeasible | `Budget _ -> None
        | `Ok (obj, sol, _) -> Some (obj, read_values core (dense_solution prep sol)))))

let diagnostics t =
  match t.state with Sfalse | Snone -> [] | Sactive core -> Lazy.force core.cdiags

let profile t =
  {
    witnesses_s = t.sacc.a_witnesses;
    encode_s = t.sacc.a_encode;
    lint_s = t.sacc.a_lint;
    prep_s = t.sacc.a_prep;
    solve_s = t.sacc.a_solve;
    questions = t.sacc.a_questions;
  }

let responsibility_delta shared vm t =
  let witnesses_of, rsp_base, _ = question_tables shared in
  let base, conflicts = translate_base vm rsp_base in
  rsp_question ~witnesses_of shared ~base ~conflicts vm t
