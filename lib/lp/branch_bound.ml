(* Shared between the float and exact instantiations (creation is
   idempotent by name); every bump is dropped unless a trace sink is
   installed. *)
let c_nodes = Obs.Counter.create "bb.nodes"
let c_pruned = Obs.Counter.create "bb.pruned"
let c_infeasible_nodes = Obs.Counter.create "bb.infeasible_nodes"
let c_integral_leaves = Obs.Counter.create "bb.integral_leaves"
let c_incumbents = Obs.Counter.create "bb.incumbents"
let c_budget_hits = Obs.Counter.create "bb.budget_hits"
let c_max_depth = Obs.Counter.create "bb.max_depth"

type status = Optimal | Feasible | Infeasible | Limit_no_solution
type work = { pivots : int; refactors : int }

module Make (F : Numeric.Field.S) = struct
  module Lp = Simplex.Make (F)

  type nonrec status = status = Optimal | Feasible | Infeasible | Limit_no_solution

  type result = {
    status : status;
    objective : F.t option;
    solution : F.t array option;
    nodes : int;
    root_objective : F.t option;
    root_integral : bool;
    pivots : int;
    refactors : int;
  }

  type relaxation = {
    objective : F.t;
    support : Model.var array;
    values : F.t array;
    integral : bool;
  }

  (* When the objective touches only integer variables (and has integer
     coefficients, always true of frozen programs), any feasible integral
     point has an integral objective, so a fractional LP bound can be
     rounded up. *)
  let strengthen pure_int_obj bound =
    if pure_int_obj && not (F.is_integral bound) then
      F.of_int (int_of_float (Float.ceil (F.to_float bound -. 1e-6)))
    else bound

  (* Pick the integer variable whose LP value is farthest from an integer,
     the smallest such variable on ties.  Only the support can be
     fractional: every other variable is zero or at an integer fix. *)
  let most_fractional fz support values =
    let best = ref (-1) in
    let best_dist = ref (-1.0) in
    Array.iteri
      (fun k v ->
        let x = values.(k) in
        if Frozen.is_integer fz v && not (F.is_integral x) then begin
          let f = F.to_float x in
          let dist = Float.abs (f -. Float.round f) in
          if dist > !best_dist || (dist = !best_dist && v < !best) then begin
            best := v;
            best_dist := dist
          end
        end)
      support;
    if !best < 0 then None else Some !best

  (* ----- Frozen sessions -------------------------------------------------
     A branch-and-bound session owns one warm-startable dual-simplex
     session over a frozen program and keeps it across calls.  Branching is
     expressed as delta extension, so within one tree every node after the
     root re-solves from the parent's basis — and across calls each solve's
     root starts from the previous call's final basis, which is what makes
     a responsibility batch (many near-identical ILPs against one frozen
     core) cheap. *)

  type session = {
    sfz : Frozen.t;
    slp : Lp.session;
    mutable sext : (Frozen.Delta.t * Frozen.t) option;
        (* Cache of the last append extension: the delta whose appends were
           materialised and the resulting frozen program.  A serve-style
           batch replays the same grown delta many times; re-extending per
           solve would re-copy the matrix every call. *)
    mutable smeta : (Frozen.t * (int * bool)) option;
        (* [fz_meta] of the program last solved, by physical identity *)
  }

  let create_session ?(kernel = `Auto) fz =
    {
      sfz = fz;
      slp = Lp.create_session ~kernel fz;
      sext = None;
      smeta = None;
    }

  (* The session's program with the delta's appends materialised (cached by
     append identity). *)
  let extended sess delta =
    if not (Frozen.Delta.has_appends delta) then sess.sfz
    else
      match sess.sext with
      | Some (d, fz) when Frozen.Delta.same_appends d delta -> fz
      | _ ->
        let fz = Frozen.extend sess.sfz delta in
        sess.sext <- Some (delta, fz);
        fz

  (* One node's relaxation: the sparse read-out spread into the dense
     vector the search branches on, with its integrality flag. *)
  let lp_relax sess ~nvars delta =
    match Lp.session_solve_sparse sess.slp delta with
    | Lp.Sparse_optimal { objective; support; values; integral } ->
      `Optimal (objective, Lp.point ~nvars delta support values, support, values, integral)
    | Lp.Sparse_infeasible -> `Infeasible

  (* Lifetime simplex work of a session's warm LP engine. *)
  let session_work sess = (Lp.session_pivots sess.slp, Lp.session_refactors sess.slp)

  (* Integrality is tested in the field — exactly, at the rationals — on
     the integer variables of the program the delta solves (appended
     columns included), by the LP session's sparse read-out. *)
  let relax ?(delta = Frozen.Delta.empty) sess =
    let piv0, ref0 = session_work sess in
    let lp =
      match Lp.session_solve_sparse sess.slp delta with
      | Lp.Sparse_optimal { objective; support; values; integral } ->
        `Optimal { objective; support; values; integral }
      | Lp.Sparse_infeasible -> `Infeasible
    in
    let piv1, ref1 = session_work sess in
    (lp, ({ pivots = piv1 - piv0; refactors = ref1 - ref0 } : work))

  (* Per-frozen-program metadata shared by every session solve: binary
     check, variable count, objective purity.  Branching fixes integer
     variables to 0/1, so they must be binary; a missing upper bound is
     accepted for covering-style programs whose optima are componentwise
     <= 1 anyway, an explicit bound other than 1 is refused. *)
  let fz_meta fz =
    let int_vars = Frozen.integer_vars fz in
    List.iter
      (fun v ->
        match Frozen.upper fz v with
        | Some 1 | None -> ()
        | Some _ -> invalid_arg "Branch_bound.solve_session: integer variables must be binary")
      int_vars;
    let nvars = Frozen.num_vars fz in
    let pure_int_obj =
      let ok = ref true in
      for v = 0 to nvars - 1 do
        if Frozen.objective fz v <> 0 && not (Frozen.is_integer fz v) then ok := false
      done;
      !ok && int_vars <> []
    in
    (nvars, pure_int_obj)

  let frozen_objective_at fz nvars x =
    let acc = ref F.zero in
    for v = 0 to nvars - 1 do
      let c = Frozen.objective fz v in
      if c <> 0 then acc := F.add !acc (F.mul (F.of_int c) x.(v))
    done;
    !acc

  (* One depth-first search over deltas, every node a warm re-solve on the
     session's LP engine.  Returns the incumbent, the root relaxation and
     whether a node or time budget stopped the search. *)
  let solve_session ?node_limit ?time_limit ?(delta = Frozen.Delta.empty) sess =
    let fz = extended sess delta in
    let nvars, pure_int_obj =
      match sess.smeta with
      | Some (fz', meta) when fz' == fz -> meta
      | _ ->
        let meta = fz_meta fz in
        sess.smeta <- Some (fz, meta);
        meta
    in
    let span0 = Obs.Trace.begin_ () in
    let piv0, ref0 = session_work sess in
    let t0 = Clock.now () in
    let timed_out () =
      match time_limit with Some limit -> Clock.elapsed t0 > limit | None -> false
    in
    let nodes = ref 0 in
    let budget_left () =
      match node_limit with Some l -> !nodes < l | None -> true
    in
    let incumbent_obj = ref None in
    let incumbent_sol = ref None in
    let offer obj sol =
      match !incumbent_obj with
      | Some inc when F.compare obj inc >= 0 -> ()
      | _ ->
        Obs.Counter.incr c_incumbents;
        incumbent_obj := Some obj;
        incumbent_sol := Some sol
    in
    let root_objective = ref None in
    let root_integral = ref false in
    let objective_at = frozen_objective_at fz nvars in
    (* [fz] is already the extended program, so the rounding check gets the
       delta with its appends stripped — passing them again would apply
       them twice. *)
    let base_delta = Frozen.Delta.clear_appends delta in
    (* Primal heuristic: ceil every positive integer variable — always
       feasible in covering programs, elsewhere the check filters.  It is
       validated against the base delta: branching fixes are search
       artifacts a root-feasible point need not respect, and rounding
       preserves 0/1 fixes anyway (so only the support moves). *)
    let try_rounding solution support values =
      let x = Array.copy solution in
      Array.iteri
        (fun k v ->
          if Frozen.is_integer fz v then
            x.(v) <- (if F.to_float values.(k) > 1e-6 then F.one else F.zero))
        support;
      if Frozen.check_feasible ~delta:base_delta fz (Array.map F.to_float x) then
        offer (objective_at x) x
    in
    let hit_limit = ref false in
    let stack = ref [ (delta, 0) ] in
    let continue = ref true in
    while !continue do
      match !stack with
      | [] -> continue := false
      | (node_delta, depth) :: rest -> (
        stack := rest;
        if timed_out () || not (budget_left ()) then begin
          hit_limit := true;
          Obs.Counter.incr c_budget_hits;
          continue := false
        end
        else begin
          incr nodes;
          Obs.Counter.incr c_nodes;
          Obs.Counter.record_max c_max_depth depth;
          match lp_relax sess ~nvars node_delta with
          | `Infeasible -> Obs.Counter.incr c_infeasible_nodes
          | `Optimal (objective, solution, support, values, integral) -> (
            (* The first solved node of a tree is always its root. *)
            if !root_objective = None then begin
              root_objective := Some objective;
              root_integral := integral
            end;
            let bound = strengthen pure_int_obj objective in
            match !incumbent_obj with
            | Some inc when F.compare bound inc >= 0 -> Obs.Counter.incr c_pruned
            | _ -> (
              match if integral then None else most_fractional fz support values with
              | None ->
                Obs.Counter.incr c_integral_leaves;
                offer objective solution
              | Some v ->
                try_rounding solution support values;
                (* The x=1 child goes on top, so it is explored first:
                   covering programs find incumbents fast that way. *)
                stack :=
                  (Frozen.Delta.fix v 0 node_delta, depth + 1)
                  :: (Frozen.Delta.fix v 1 node_delta, depth + 1)
                  :: !stack))
        end)
    done;
    let piv1, ref1 = session_work sess in
    Obs.Trace.end_ span0 "bb.solve";
    {
      status =
        (match (!incumbent_obj, !hit_limit) with
        | Some _, false -> Optimal
        | Some _, true -> Feasible
        | None, true -> Limit_no_solution
        | None, false -> Infeasible);
      objective = !incumbent_obj;
      solution = !incumbent_sol;
      nodes = !nodes;
      root_objective = !root_objective;
      root_integral = !root_integral;
      pivots = piv1 - piv0;
      refactors = ref1 - ref0;
    }

  let solve_frozen ?node_limit ?time_limit ?delta fz =
    solve_session ?node_limit ?time_limit ?delta (create_session fz)
end
