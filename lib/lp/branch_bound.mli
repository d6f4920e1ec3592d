(** LP-based branch-and-bound for ILPs and MILPs with binary integer variables.

    This mirrors the mechanism the paper relies on in commercial solvers
    (Section 3.2): the root LP relaxation is solved first, and when its
    optimum is integral on the integer variables the search stops at the root
    — which is exactly what happens, provably, for all the paper's PTIME
    cases.  On hard instances the search branches, and the explored node
    count is the observable "exponential blow-up" of the experiments.

    Only binary integer variables are supported (all programs in this code
    base are of that shape): branching fixes a variable to 0 or to 1 and the
    child LP shrinks accordingly.  Objectives are non-negative (see
    {!Simplex}), so no relaxation is ever unbounded. *)

type status =
  | Optimal  (** Proved optimal. *)
  | Feasible  (** A limit was hit; [objective] is the incumbent's value. *)
  | Infeasible
  | Limit_no_solution  (** A limit was hit before any incumbent was found. *)
(** Shared by every field instantiation, so results convert between fields
    without a status translation. *)

type work = { pivots : int; refactors : int }
(** Simplex work spent on one call, from the warm session's lifetime
    totals. *)

module Make (F : Numeric.Field.S) : sig
  type nonrec status = status = Optimal | Feasible | Infeasible | Limit_no_solution

  type result = {
    status : status;
    objective : F.t option;
    solution : F.t array option;
    nodes : int;  (** LP relaxations solved. *)
    root_objective : F.t option;  (** Root LP relaxation value. *)
    root_integral : bool;
        (** Whether the root LP optimum was already integral on the integer
            variables — the paper's LP=ILP condition observed in practice. *)
    pivots : int;
        (** Simplex pivots spent on this solve, attributed through the warm
            session's lifetime totals. *)
    refactors : int;  (** Basis refactorisations, attributed like [pivots]. *)
  }

  (** {1 Frozen sessions}

      A session owns one warm-startable dual-simplex session (see
      {!Simplex}) over a frozen program and keeps it across calls:
      branching is delta extension, so within a tree every node after the
      root re-solves from its parent's basis, and across calls each root
      starts from the previous call's final basis — the warm-start chain a
      responsibility batch rides. *)

  type session

  val create_session : ?kernel:Basis.choice -> Frozen.t -> session
  (** [kernel] selects the basis representation of the warm LP session
      ([`Auto] = sparse LU, see {!Basis.choice}). *)

  val solve_session :
    ?node_limit:int -> ?time_limit:float -> ?delta:Frozen.Delta.t -> session -> result
  (** Branch-and-bound under the delta (the "base" fixes every node of this
      tree respects).  [time_limit] is wall-clock seconds (emulates the
      paper's ILP(10) cutoff).  A delta carrying
      row/column appends solves the extended program — the warm LP session
      absorbs the appends (see {!Simplex.session_solve}) and [solution] is
      indexed by extended variable; appended integer columns must be
      binary-compatible (upper bound 1 or none).
      @raise Invalid_argument if an integer variable has an upper bound
      other than 1. *)

  type relaxation = {
    objective : F.t;
    support : Model.var array;
        (** The nonzero variables the delta does not fix (see
            {!Simplex.Make.session_solve_sparse}). *)
    values : F.t array;  (** [values.(k)] is the value of [support.(k)]. *)
    integral : bool;
        (** The optimum is integral on every integer variable, tested in the
            field — such an optimum {e is} the ILP optimum. *)
  }

  val relax :
    ?delta:Frozen.Delta.t -> session -> [ `Optimal of relaxation | `Infeasible ] * work
  (** Just the LP relaxation under the delta (one warm-started simplex
      solve), read out sparsely, with the pivots and refactorisations it
      spent. *)

  val solve_frozen :
    ?node_limit:int -> ?time_limit:float -> ?delta:Frozen.Delta.t -> Frozen.t -> result
  (** One-shot convenience: [solve_session] on a fresh session. *)
end
