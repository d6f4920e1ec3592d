(** Revised bounded-variable dual simplex over an arbitrary ordered field and
    a pluggable basis kernel.

    The same algorithm instantiated at {!Numeric.Field.Float_field} gives the
    production solver, and at {!Numeric.Field.Rat_field} an exact-arithmetic
    oracle used in tests and to certify LP-relaxation integrality claims
    (Theorems 8.6–8.13 of the paper).

    The basis representation lives behind {!Basis.S}: every entry point
    takes [?kernel] selecting {!Basis.Sparse_lu} (the default — sparse LU
    with product-form eta updates, iteration cost tracking nonzeros) or
    {!Basis.Dense} (the reference explicit inverse, kept for differential
    testing).  Both kernels instantiate at either field.

    The solver works on a {!Frozen.t}: minimize [c'x] subject to its rows,
    [x >= 0] and the per-variable upper bounds (native column bounds, not
    rows).  Every objective coefficient is non-negative — {!Model.add_var},
    {!Frozen.make} and {!Frozen.Delta.append_col} reject anything else — so
    the all-slack basis is dual feasible and the LP is never unbounded.
    Integrality flags do not constrain the solve — this is the relaxation;
    see {!Branch_bound} for ILP/MILP solving — and are read only by
    {!Make.session_solve_sparse}'s integral test. *)

module Make (F : Numeric.Field.S) : sig
  type outcome =
    | Optimal of { objective : F.t; solution : F.t array }
        (** [solution] is indexed by frozen variable (fixed variables
            included at their fixed value). *)
    | Infeasible

  (** {1 Frozen sessions}

      A session compiles a {!Frozen.t} once — sparse columns, native
      per-column bounds (no upper-bound rows), a slack per row with
      equality slacks fixed to zero — and then solves any number of
      {!Frozen.Delta} bound overlays against it with a bounded-variable
      dual simplex.  Because a delta changes only bounds, the basis and
      reduced costs of the previous solve remain dual feasible, so every
      solve after the first warm-starts from the previous optimum instead
      of the all-slack basis.  A solve installs only the difference between
      its delta and the previous one, so a warm question costs its change,
      not the program. *)

  type session

  val create_session : ?kernel:Basis.choice -> Frozen.t -> session
  (** The session's basis kernel is fixed at creation ([`Auto] = sparse
      LU; [`Dense] forces the reference inverse, used by the
      [dense_vs_sparse_basis] differential oracle). *)

  val session_pivots : session -> int
  (** Lifetime pivot count of the session (never reset).  Callers take
      before/after deltas to attribute simplex work to one solve; unlike
      the global ["simplex.pivots"] counter this is per-session, so the
      attribution survives parallel batches. *)

  val session_refactors : session -> int
  (** Lifetime basis-refactorisation count of the session. *)

  val session_kernel : session -> string
  (** Name of the session's basis kernel (["sparse-lu"] or ["dense"]). *)

  type sparse_outcome =
    | Sparse_optimal of {
        objective : F.t;
        support : Model.var array;
            (** The variables the delta does {e not} fix whose value is
                nonzero, in no particular order.  Every other variable is
                zero or at the value the delta fixes it to. *)
        values : F.t array;  (** [values.(k)] is the value of [support.(k)]. *)
        integral : bool;
            (** Every integer variable is integral (within the field
                tolerance). *)
      }
    | Sparse_infeasible

  val session_solve_sparse : session -> Frozen.Delta.t -> sparse_outcome
  (** Solve the frozen program under the delta, warm-starting from whatever
      basis the previous call left behind, and read the optimum out in
      proportion to its support, not to the program: the basic rows and
      the nonbasic variables at a nonzero upper bound.  A fix above a
      variable's base upper bound is [Sparse_infeasible].  Appends are
      absorbed as described at {!session_solve}. *)

  val point : nvars:int -> Frozen.Delta.t -> Model.var array -> F.t array -> F.t array
  (** [point ~nvars delta support values] is the full solution vector of a
      sparse read-out over [nvars] variables: the delta's fixes, then the
      support, zero elsewhere. *)

  val session_solve : session -> Frozen.Delta.t -> outcome
  (** Solve the frozen program under the delta, warm-starting from
      whatever basis the previous call left behind: {!session_solve_sparse}
      with its read-out spread into a vector indexed by frozen
      variable.  A fix above a variable's base upper bound is
      [Infeasible].

      When the delta carries row/column appends ({!Frozen.Delta.append_row},
      {!Frozen.Delta.append_col}), the session absorbs them: the state is
      re-compiled against [Frozen.extend base delta], and if the new
      appends extend the previously absorbed ones the old optimal basis is
      re-seeded with the new rows slack-basic — a dual-feasible warm start,
      because base rows are immutable so appending never changes an
      existing reduced cost.  [solution] is then indexed by extended
      variable.  Deltas should grow appends monotonically (each derived
      from the last via [append_*]); a delta whose appends are not an
      extension of the absorbed ones triggers a cold re-compile. *)

  val solve_frozen : ?delta:Frozen.Delta.t -> ?kernel:Basis.choice -> Frozen.t -> outcome
  (** One-shot convenience: {!session_solve} on a fresh session. *)
end
