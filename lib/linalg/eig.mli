(** Eigensolvers for real symmetric and complex Hermitian matrices.

    The full-spectrum solvers ({!symmetric}, {!hermitian} and what is
    built on them) use the cyclic Jacobi rotation method, which is slow
    (cubic per sweep) but numerically robust and dependency-free — the
    matrices in this repository are at most a few hundred rows.  The
    Hermitian case is reduced to the real symmetric one through the
    standard embedding [H = A + iB  ->  [[A, -B]; [B, A]]], whose
    spectrum doubles every eigenvalue of [H].

    Callers that need only the largest eigenpair use {!top_hermitian},
    a Lanczos iteration that costs a few dozen matrix-vector products
    instead of a full diagonalisation. *)

(** [symmetric a] diagonalizes the real symmetric matrix [a] (given as
    an array of rows).  Returns [(evals, evecs)] with eigenvalues in
    ascending order and [evecs.(i)] the (row-stored) eigenvector of
    [evals.(i)], forming an orthonormal basis.
    @raise Invalid_argument if [a] is not square. *)
val symmetric : float array array -> float array * float array array

(** [hermitian m] diagonalizes the Hermitian matrix [m].  Returns
    eigenvalues in ascending order and a unitary matrix whose [i]-th
    column is the eigenvector of the [i]-th eigenvalue.
    @raise Invalid_argument if [m] is not square. *)
val hermitian : Mat.t -> float array * Mat.t

(** [top_hermitian m] is [(lambda, v)]: the largest eigenvalue of the
    Hermitian matrix [m] and a unit eigenvector for it (its global
    phase is arbitrary).

    Lanczos with full reorthogonalisation from a fixed pseudo-random
    start vector (a private generator: the global [Random] state is
    neither read nor advanced, and the result is a deterministic
    function of [m]).  The tridiagonal projection is solved with
    {!symmetric} at Krylov dimensions 1, 2, 4, 8, ...; the pair is
    accepted when the Ritz residual is at most [1e-12 * max 1 |lambda|]
    and the true residual [||m v - lambda v||] is at most
    [1e-10 * max 1 |lambda|].  Otherwise it falls back to {!hermitian},
    counted by the [kernel.eig_top.fallbacks] metric.
    @raise Invalid_argument if [m] is not square or is empty. *)
val top_hermitian : Mat.t -> float * Vec.t

(** [eigenvalues_hermitian m] is [fst (hermitian m)] — the ascending
    spectrum of a Hermitian matrix. *)
val eigenvalues_hermitian : Mat.t -> float array

(** [func_hermitian f m] applies the scalar function [f] to the
    spectrum of the Hermitian matrix [m]: returns [V diag(f lambda) V^dagger]. *)
val func_hermitian : (float -> float) -> Mat.t -> Mat.t

(** [sqrt_psd m] is the positive-semidefinite square root of a PSD
    Hermitian matrix (negative eigenvalues due to rounding are clipped
    to zero). *)
val sqrt_psd : Mat.t -> Mat.t
