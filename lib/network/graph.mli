(** Simple connected undirected graphs — the network topologies on
    which the distributed verification protocols run.

    Nodes are integers [0 .. size - 1].  The radius of the paper
    ([min_u max_v dist(u, v)]) and related metrics are computed by
    repeated BFS. *)

type t

(** [create n] is the edgeless graph on [n] nodes. *)
val create : int -> t

(** [add_edge g u v] inserts the undirected edge [{u, v}] (idempotent).
    @raise Invalid_argument on self-loops or out-of-range nodes. *)
val add_edge : t -> int -> int -> unit

(** [size g] is the number of nodes. *)
val size : t -> int

(** [neighbours g u] is the sorted adjacency list of [u]. *)
val neighbours : t -> int -> int list

(** [degree g u] is the number of neighbours. *)
val degree : t -> int -> int

(** [max_degree g] is the maximum degree. *)
val max_degree : t -> int

(** [has_edge g u v] tests adjacency. *)
val has_edge : t -> int -> int -> bool

(** [edges g] lists each undirected edge once, as [(u, v)] with
    [u < v]. *)
val edges : t -> (int * int) list

(** {2 Dense edge index}

    The edges numbered [0 .. edge_count g - 1] in {!edges} order, so a
    per-edge tally can be a plain int array.  The index is built on
    first use and kept until the next {!add_edge}; a graph may be
    shared across domains. *)

(** [edge_count g] is [List.length (edges g)]. *)
val edge_count : t -> int

(** [edge g i] is the [i]-th element of [edges g]. *)
val edge : t -> int -> int * int

(** [edge_id g u v] is the index of the edge [{u, v}], or [-1] when [u]
    and [v] are not adjacent.
    @raise Invalid_argument if [u] or [v] is out of range. *)
val edge_id : t -> int -> int -> int

(** [bfs_distances g u] is the array of hop distances from [u]
    ([max_int] for unreachable nodes). *)
val bfs_distances : t -> int -> int array

(** [is_connected g] holds when every node is reachable from node 0. *)
val is_connected : t -> bool

(** [eccentricity g u] is [max_v dist(u, v)].
    @raise Invalid_argument on disconnected graphs. *)
val eccentricity : t -> int -> int

(** [radius g] is [min_u eccentricity u]; [diameter g] is the max. *)
val radius : t -> int

val diameter : t -> int

(** [center g] is a node of minimum eccentricity. *)
val center : t -> int

(** {2 Builders} *)

(** [path r] is the path [v_0 - v_1 - ... - v_r] on [r + 1] nodes. *)
val path : int -> t

(** [cycle n] is the [n]-cycle. *)
val cycle : int -> t

(** [star n] is the star with center 0 and [n] leaves. *)
val star : int -> t

(** [balanced_tree ~arity ~depth] is the complete [arity]-ary tree. *)
val balanced_tree : arity:int -> depth:int -> t

(** [grid ~w ~h] is the [w x h] grid graph. *)
val grid : w:int -> h:int -> t

(** [random_connected st ~n ~extra_edges] is a uniform random spanning
    tree (random attachment) plus [extra_edges] random chords. *)
val random_connected : Random.State.t -> n:int -> extra_edges:int -> t

(** [to_dot ?highlight g] renders Graphviz DOT source; vertices in
    [highlight] are drawn filled (used to mark terminals). *)
val to_dot : ?highlight:int list -> t -> string
