//! Pre-recorded allocation counters for the bytecode VM.
//!
//! The bytecode compiler is pure (it never touches the heap), so lowering
//! an analyzed form changes no allocation sequence. This file pins that
//! down against numbers recorded once, before the tree-walking executor
//! the VM was lowered from was retired: on every program below, under
//! the default heap and under an 8 KiB trigger that collects throughout,
//! the VM must reproduce the recorded deterministic heap counters
//! exactly. Any extra, missing or reordered allocation in an instruction
//! moves at least one of them.
//!
//! The program texts are part of the key: editing one invalidates its
//! golden row. The naive reference evaluator allocates differently by
//! design (association-list environments) and is compared with the VM
//! on observables in `prop_tiers.rs`.

use guardians_gc::GcConfig;
use guardians_scheme::{Interp, InterpConfig};

/// Hand-written programs: the paper's Section 3/5 transcripts and the
/// classic-program regressions. Each entry is evaluated form string by
/// form string (a string may hold several forms); errors are part of the
/// program and are simply recorded.
const HAND: &[(&str, &[&str])] = &[
    (
        "transcript_basic",
        &[
            "(define G (make-guardian))",
            "(define x (cons 'a 'b))",
            "(G x)",
            "(G)",
            "(set! x #f)",
            "(collect 3)",
            "(G)",
            "(G)",
        ],
    ),
    (
        "transcript_double_registration",
        &[
            "(define G (make-guardian))",
            "(define x (cons 'a 'b))",
            "(G x) (G x)",
            "(set! x #f)",
            "(collect 3)",
            "(G)",
            "(G)",
            "(G)",
        ],
    ),
    (
        "transcript_two_guardians",
        &[
            "(define G (make-guardian)) (define H (make-guardian))",
            "(define x (cons 'a 'b))",
            "(G x) (H x)",
            "(set! x #f)",
            "(collect 3)",
            "(G)",
            "(H)",
        ],
    ),
    (
        "transcript_guardian_in_guardian",
        &[
            "(define G (make-guardian))",
            "(define H (make-guardian))",
            "(define x (cons 'a 'b))",
            "(G H)",
            "(H x)",
            "(set! x #f)",
            "(set! H #f)",
            "(collect 3)",
            "((G))",
        ],
    ),
    (
        "guarded_ports_library",
        &[
            r#"
(define port-guardian (make-guardian))
(define close-dropped-ports
  (lambda ()
    (let ([p (port-guardian)])
      (if p
          (begin
            (if (output-port? p)
                (begin (flush-output-port p) (close-output-port p))
                (close-input-port p))
            (close-dropped-ports))
          #f))))
(define guarded-open-input-file
  (lambda (pathname)
    (close-dropped-ports)
    (let ([p (open-input-file pathname)])
      (port-guardian p)
      p)))
(define guarded-open-output-file
  (lambda (pathname)
    (close-dropped-ports)
    (let ([p (open-output-file pathname)])
      (port-guardian p)
      p)))
(define guarded-exit
  (lambda ()
    (close-dropped-ports)))"#,
            r#"(define p (guarded-open-output-file "/log")) (write-string "precious bytes" p) (set! p #f)"#,
            "(collect 3)",
            r#"(define q (guarded-open-output-file "/other"))"#,
            r#"(write-string "bye" q) (set! q #f) (collect 3) (guarded-exit)"#,
        ],
    ),
    (
        "figure_1_guarded_hash_table",
        &[
            r#"
(define make-guarded-hash-table
  (lambda (hash size)
    (let ([g (make-guardian)]
          [v (make-vector size '())])
      (lambda (key value)
        (let loop ([z (g)])
          (if z
              (begin
                (let ([h (remainder (hash z) size)])
                  (let ([bucket (vector-ref v h)])
                    (vector-set! v h (remq (assq z bucket) bucket))))
                (loop (g)))
              #f))
        (let ([h (remainder (hash key) size)])
          (let ([bucket (vector-ref v h)])
            (let ([a (assq key bucket)])
              (if a
                  (cdr a)
                  (let ([a (weak-cons key value)])
                    (vector-set! v h (cons a bucket))
                    value)))))))))
(define table (make-guarded-hash-table equal-hash 8))"#,
            "(define k1 (cons 'key 1)) (define k2 (cons 'key 2)) (define k3 (cons 'key 3))",
            "(table k1 'v1) (table k2 'v2) (table k3 'v3)",
            "(table k1 'other)",
            "(set! k2 #f) (collect 3)",
            "(table k1 'probe)",
            "(table k3 'probe)",
            "(table (cons 'key 2) 'fresh)",
        ],
    ),
    (
        "transport_guardian_program",
        &[
            r#"
(define make-transport-guardian
  (lambda ()
    (let ([g (make-guardian)])
      (case-lambda
        [(x) (g (weak-cons x #f))]
        [() (let loop ([m (g)])
              (if m
                  (if (car m)
                      (begin (g m) (car m))
                      (loop (g)))
                  #f))]))))
(define tg (make-transport-guardian))
(define obj (cons 'tracked 42))
(tg obj)"#,
            "(tg)",
            "(collect 0)",
            "(tg)",
            "(tg)",
            "(set! obj #f) (collect 3)",
            "(tg)",
        ],
    ),
    (
        "agent_registration",
        &[
            "(define G (make-guardian))",
            "(define x (cons 'resource 7))",
            "(G x (cdr x))",
            "(set! x #f)",
            "(collect 3)",
            "(G)",
        ],
    ),
    (
        "cleanup_actions_may_allocate_and_raise",
        &[
            r#"
(define G (make-guardian))
(define x (cons 'a 'b))
(G x)
(set! x #f)
(collect 3)
(define cleaned
  (let ([dead (G)])
    (list 'finalized dead (make-vector 100 'fill))))"#,
            "(car cleaned)",
            "(define y (cons 1 2)) (G y) (set! y #f) (collect 3)",
            r#"(let ([dead (G)]) (error "cleanup failed for" dead))"#,
            "(+ 1 1)",
        ],
    ),
    (
        "guarded_table_under_churn",
        &[
            r#"
(define make-guarded-hash-table
  (lambda (hash size)
    (let ([g (make-guardian)]
          [v (make-vector size '())])
      (lambda (key value)
        (let loop ([z (g)])
          (if z
              (begin
                (let ([h (remainder (hash z) size)])
                  (let ([bucket (vector-ref v h)])
                    (vector-set! v h (remq (assq z bucket) bucket))))
                (loop (g)))
              #f))
        (let ([h (remainder (hash key) size)])
          (let ([bucket (vector-ref v h)])
            (let ([a (assq key bucket)])
              (if a
                  (cdr a)
                  (let ([a (weak-cons key value)])
                    (vector-set! v h (cons a bucket))
                    value)))))))))
(define table (make-guarded-hash-table equal-hash 16))
(define keep '())
(let loop ([n 0])
  (if (= n 200)
      'done
      (begin
        (let ([k (cons 'k n)])
          (table k n)
          (when (zero? (remainder n 10))
            (set! keep (cons k keep))))
        (when (zero? (remainder n 50)) (collect))
        (loop (+ n 1)))))
(collect 3)"#,
            "(table (car keep) 'probe)",
        ],
    ),
    (
        "tak",
        &["(define (tak x y z)
             (if (not (< y x))
                 z
                 (tak (tak (- x 1) y z)
                      (tak (- y 1) z x)
                      (tak (- z 1) x y))))
           (tak 14 10 4)"],
    ),
    (
        "fibonacci",
        &["(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 15)"],
    ),
    (
        "ackermann_small",
        &["(define (ack m n)
             (cond [(= m 0) (+ n 1)]
                   [(= n 0) (ack (- m 1) 1)]
                   [else (ack (- m 1) (ack m (- n 1)))]))
           (ack 2 3)"],
    ),
    (
        "merge_sort",
        &["(define (merge a b)
             (cond [(null? a) b]
                   [(null? b) a]
                   [(< (car a) (car b)) (cons (car a) (merge (cdr a) b))]
                   [else (cons (car b) (merge a (cdr b)))]))
           (define (split ls)
             (if (or (null? ls) (null? (cdr ls)))
                 (cons ls '())
                 (let ([rest (split (cddr ls))])
                   (cons (cons (car ls) (car rest))
                         (cons (cadr ls) (cdr rest))))))
           (define (msort ls)
             (if (or (null? ls) (null? (cdr ls)))
                 ls
                 (let ([halves (split ls)])
                   (merge (msort (car halves)) (msort (cdr halves))))))
           (msort '(5 3 8 1 9 2 7 4 6 0))"],
    ),
    (
        "quicksort_with_filter",
        &["(define (filter p ls)
             (cond [(null? ls) '()]
                   [(p (car ls)) (cons (car ls) (filter p (cdr ls)))]
                   [else (filter p (cdr ls))]))
           (define (qsort ls)
             (if (null? ls)
                 '()
                 (let ([pivot (car ls)] [rest (cdr ls)])
                   (append
                     (qsort (filter (lambda (x) (< x pivot)) rest))
                     (list pivot)
                     (qsort (filter (lambda (x) (not (< x pivot))) rest))))))
           (qsort '(3 1 4 1 5 9 2 6 5 3 5))"],
    ),
    (
        "church_encoding",
        &["(define zero (lambda (f) (lambda (x) x)))
           (define (succ n) (lambda (f) (lambda (x) (f ((n f) x)))))
           (define (church->int n) ((n (lambda (k) (+ k 1))) 0))
           (define (plus a b) (lambda (f) (lambda (x) ((a f) ((b f) x)))))
           (define three (succ (succ (succ zero))))
           (church->int (plus three (succ three)))"],
    ),
    (
        "association_list_interpreter",
        &["(define (lookup x env)
             (let ([hit (assq x env)])
               (if hit (cdr hit) (error \"unbound\" x))))
           (define (ev e env)
             (cond [(number? e) e]
                   [(symbol? e) (lookup e env)]
                   [(eq? (car e) 'add) (+ (ev (cadr e) env) (ev (caddr e) env))]
                   [(eq? (car e) 'mul) (* (ev (cadr e) env) (ev (caddr e) env))]
                   [(eq? (car e) 'let1)
                    (ev (car (cdddr e))
                        (cons (cons (cadr e) (ev (caddr e) env)) env))]
                   [else (error \"bad form\")]))
           (define (cdddr x) (cdr (cddr x)))
           (ev '(let1 a 7 (add (mul a a) a)) '())"],
    ),
    (
        "string_building_churn",
        &["(define (repeat s n)
             (do ([i 0 (+ i 1)] [acc \"\" (string-append acc s)])
                 ((= i n) acc)))
           (string-length (repeat \"abcde\" 100))"],
    ),
    (
        "higher_order_pipeline",
        &["(define (compose f g) (lambda (x) (f (g x))))
           (define inc (lambda (x) (+ x 1)))
           (define dbl (lambda (x) (* x 2)))
           (map (compose inc dbl) '(1 2 3 4 5))"],
    ),
    (
        "guardians_inside_a_recursive_workload",
        &["(define G (make-guardian))
           (define (work n)
             (if (zero? n)
                 'done
                 (begin (G (cons n n)) (work (- n 1)))))
           (work 300)
           (collect 3)
           (let drain ([n 0])
             (if (G) (drain (+ n 1)) n))"],
    ),
    (
        "collect_request_handler",
        &[
            "(define count 0)",
            "(collect-request-handler (lambda () (set! count (+ count 1)) (collect)))",
            "(define (churn n) (if (zero? n) '() (cons (make-string 64 #\\x) (churn (- n 1)))))",
            "(define sink #f)",
            "(let lp ((i 40)) (unless (zero? i) (set! sink (churn 100)) (lp (- i 1))))",
            "(> count 0)",
        ],
    ),
    (
        "guardian_weak_matrix",
        &[
            "(define G (make-guardian))",
            "(define H (make-guardian))",
            "(define W '())",
            "(define (churn n) (if (zero? n) '() (cons (make-string 64 #\\x) (churn (- n 1)))))",
            "(define keep '())",
            "(let lp ((i 0)) (when (< i 24)
               (let ((x (cons i 'payload)))
                 (G x)
                 (when (even? i) (H x x))
                 (set! W (cons (weak-cons x i) W))
                 (when (zero? (modulo i 3)) (set! keep (cons x keep))))
               (set! keep (cons (churn 40) keep))
               (when (> (length keep) 4) (set! keep (list (car keep))))
               (lp (+ i 1))))",
            "(collect 3)",
            "(let lp ((v (G))) (when v (display v) (display \" \") (lp (G))))",
            "(let lp ((v (H))) (when v (display v) (display \" \") (lp (H))))",
            "(for-each (lambda (w) (display (car w)) (display \" \")) W)",
            "(collect 3)",
            "(let lp ((v (G))) (when v (display v) (display \" \") (lp (G))))",
            "(for-each (lambda (w) (display (car w)) (display \" \")) W)",
        ],
    ),
    (
        "quasiquote_and_records",
        &[
            "(define-record-type point (make-point x y) point? (x point-x) (y point-y set-point-y!))",
            "(define (pts n) (let lp ((i 0) (acc '())) (if (= i n) acc (lp (+ i 1) (cons (make-point i (* i i)) acc)))))",
            "(define ps (pts 50))",
            "(map (lambda (p) `(pt ,(point-x p) ,@(list (point-y p) 'end) #(v ,(point-x p)))) ps)",
            "(for-each (lambda (p) (set-point-y! p (+ (point-y p) 1))) ps)",
            "(collect 1)",
            "(apply + (map point-y ps))",
            "(case (point-x (car ps)) ((49) 'last) ((0) 'first) (else 'other))",
        ],
    ),
];

/// Programs produced by the `prop_tiers` byte-driven generator (ten fixed
/// xorshift seeds) and by its guardian-workload shape (four fixed
/// parameter draws), frozen as text.
const GENERATED: &[(&str, &[&str])] = &[
    (
        "generated_0",
        &[
            "(define g0 (begin (set! g1 g0) g1))",
            "(define g1 (cons (let lp ((v0 3)) (if (< v0 1) \"str\" (lp (- v0 1)))) (and g1 #f)))",
            "(do ((v1 0 (+ v1 1)) (v2 0 (begin (+ ((lambda (v3) v2) '(1 2 3)) (begin g0 56 '(1 2 3))) v2))) ((= v1 2) v2))",
            "(begin (and (begin (set! g1 g1) g1) (or g0 '(1 2 3))) (let lp ((v4 1)) (if (< v4 1) ((lambda (v5) '(1 2 3)) g0) (lp (- v4 1)))) (begin (set! g1 (car (cons '(1 2 3) 0))) g1))",
            "(or (case (begin (set! g1 #f) g1) ((1 2) (cons #t 'sym)) ((sym) 'hit) (else g0)) (let ((v6 (and \"str\" 'sym))) (let ((v7 '(1 2 3))) '(1 2 3))))",
            "(and (case (begin #t g0 #f) ((1 2) g0) ((sym) 'hit) (else (cons #t g1))) (cons ((lambda (v8) v8) 72) (+ 'sym '(1 2 3))))",
            "(display (do ((v9 0 (+ v9 1)) (v10 0 (begin (if #t v10 '(1 2 3)) v10))) ((= v9 2) v10)))",
        ],
    ),
    (
        "generated_1",
        &[
            "(define g0 ((lambda (v0) g1) #t))",
            "(define g1 #f)",
            "(begin (set! g1 (let ((v1 ((lambda (v2) #t) g1))) (let lp ((v3 2)) (if (< v3 1) 8 (lp (- v3 1)))))) g1)",
            "(begin (set! g1 g0) g1)",
            "(begin (set! g1 (let lp ((v4 2)) (if (< v4 1) (let ((v5 40)) v5) (lp (- v4 1))))) g1)",
            "(begin (set! g1 `(a ,(let ((v6 g0)) '(1 2 3)) ,@(list (cond ((pair? #t) => car) (\"str\" '(1 2 3)) (else g1))) c)) g1)",
            "(display (cons (begin (set! g1 #t) g1) (+ #f \"str\")))",
        ],
    ),
    (
        "generated_2",
        &[
            "(define g0 (let lp ((v0 2)) (if (< v0 1) g0 (lp (- v0 1)))))",
            "(define g1 (if (if #t #f -16) (let ((v1 '(1 2 3))) -128) 'sym))",
            "(cons ((lambda (v2) ((lambda (v3) 'sym) 24)) 72) #t)",
            "(display (case (or \"str\" '(1 2 3)) ((1 2) (let lp ((v4 2)) (if (< v4 1) #t (lp (- v4 1))))) ((sym) 'hit) (else (+ g0 #t))))",
        ],
    ),
    (
        "generated_3",
        &[
            "(define g0 (cons '(1 2 3) #f))",
            "(define g1 ((lambda (v0) ((lambda (v1) -56) \"str\")) (and \"str\" 120)))",
            "-72",
            "(case (+ (+ 0 g1) (and 64 #t)) ((1 2) (if g0 -56 `(a ,\"str\" ,@(list #f) c))) ((sym) 'hit) (else (begin (cond ((pair? 'sym) => car) (g1 80) (else '(1 2 3))) (+ g1 #t) (begin \"str\" '(1 2 3) #f))))",
            "(and (car (cons (cond ((pair? g0) => car) ('(1 2 3) \"str\") (else '(1 2 3))) 0)) (cons (car (cons 'sym 0)) (cond ((pair? #f) => car) (16 'sym) (else '(1 2 3)))))",
            "(display (case (begin (set! g1 -24) g1) ((1 2) (let lp ((v2 2)) (if (< v2 1) 32 (lp (- v2 1))))) ((sym) 'hit) (else (and \"str\" g1))))",
        ],
    ),
    (
        "generated_4",
        &[
            "(define g0 (if #f '(1 2 3) 112))",
            "(define g1 (if (if \"str\" '(1 2 3) g0) (let lp ((v0 1)) (if (< v0 1) g1 (lp (- v0 1)))) (do ((v1 0 (+ v1 1)) (v2 0 (begin 'sym v2))) ((= v1 2) v2))))",
            "(car (cons (cons (and #f 80) (+ g1 #f)) 0))",
            "(display '(1 2 3))",
        ],
    ),
    (
        "generated_5",
        &[
            "(define g0 `(a ,#t ,@(list g1) c))",
            "(define g1 (begin (set! g1 '(1 2 3)) g1))",
            "(car (cons (cond ((pair? (begin (set! g1 16) g1)) => car) (((lambda (v0) #f) \"str\") (cons #f #f)) (else (begin #t g1 g1))) 0))",
            "(display (let lp ((v1 3)) (if (< v1 1) ((lambda (v2) v2) #f) (lp (- v1 1)))))",
        ],
    ),
    (
        "generated_6",
        &[
            "(define g0 (begin (set! g1 g1) g1))",
            "(define g1 (car (cons (case #f ((1 2) #f) ((sym) 'hit) (else -24)) 0)))",
            "(or (cons (if g0 #f '(1 2 3)) (+ -120 #f)) (or (case 'sym ((1 2) \"str\") ((sym) 'hit) (else 'sym)) (cons #t #t)))",
            "`(a ,(let ((v0 (begin 'sym -48 -104))) (or 'sym '(1 2 3))) ,@(list (case (begin #t -32 \"str\") ((1 2) (+ \"str\" g1)) ((sym) 'hit) (else (car (cons \"str\" 0))))) c)",
            "(let lp ((v1 3)) (if (< v1 1) (begin (case 112 ((1 2) g0) ((sym) 'hit) (else -64)) `(a ,80 ,@(list v1) c) (case '(1 2 3) ((1 2) '(1 2 3)) ((sym) 'hit) (else -104))) (lp (- v1 1))))",
            "(display (cons (begin #f \"str\" g0) (begin 'sym -64 #f)))",
        ],
    ),
    (
        "generated_7",
        &[
            "(define g0 (and 16 #t))",
            "(define g1 (car (cons (if g1 -120 40) 0)))",
            "(car (cons (begin (begin #t #t #f) -24 (let ((v0 64)) g1)) 0))",
            "((lambda (v1) (if (car (cons v1 0)) (let ((v2 \"str\")) v1) (begin #t -32 \"str\"))) 88)",
            "(display (begin (begin g1 '(1 2 3) '(1 2 3)) (if g1 -64 #f) (case 'sym ((1 2) g0) ((sym) 'hit) (else g0))))",
        ],
    ),
    (
        "generated_8",
        &[
            "(define g0 (cons '(1 2 3) \"str\"))",
            "(define g1 (let lp ((v0 2)) (if (< v0 1) (if 'sym 'sym #f) (lp (- v0 1)))))",
            "(let ((v1 (begin (set! g1 (if 112 #t '(1 2 3))) g1))) (begin (set! g1 (if g1 56 '(1 2 3))) g1))",
            "(and (and (let ((v2 '(1 2 3))) '(1 2 3)) 'sym) (and (case g0 ((1 2) \"str\") ((sym) 'hit) (else #t)) (let ((v3 g1)) 64)))",
            "(begin (set! g1 ((lambda (v4) (begin g1 #f g0)) (do ((v5 0 (+ v5 1)) (v6 0 (begin '(1 2 3) v6))) ((= v5 1) v6)))) g1)",
            "(display (or (car (cons g0 0)) (cons #f \"str\")))",
        ],
    ),
    (
        "generated_9",
        &[
            "(define g0 `(a ,g1 ,@(list 'sym) c))",
            "(define g1 (begin (+ 80 'sym) (car (cons g0 0)) (do ((v0 0 (+ v0 1)) (v1 0 (begin v1 v1))) ((= v0 1) v1))))",
            "(and (cons (cons #f #f) (and g0 g0)) (if ((lambda (v2) \"str\") '(1 2 3)) #t (let lp ((v3 3)) (if (< v3 1) 16 (lp (- v3 1))))))",
            "(begin (set! g1 -120) g1)",
            "(display (let ((v4 (let lp ((v5 1)) (if (< v5 1) g0 (lp (- v5 1)))))) (if 0 '(1 2 3) \"str\")))",
        ],
    ),
    (
        "generated_guardians_0",
        &[
            "(define G (make-guardian))",
            "(define W '())",
            "(define x0 (cons 0 'payload))",
            "(G x0)",
            "(set! W (cons (weak-cons x0 0) W))",
            "(collect 0)",
            "(let lp ((v (G))) (when v (display v) (display \" \") (lp (G))))",
            "(for-each (lambda (w) (display (car w)) (display \" \")) W)",
            "(collect 1)",
            "(let lp ((v (G))) (when v (display v) (display \" \") (lp (G))))",
            "(for-each (lambda (w) (display (car w)) (display \" \")) W)",
        ],
    ),
    (
        "generated_guardians_1",
        &[
            "(define G (make-guardian))",
            "(define W '())",
            "(define x0 (cons 0 'payload))",
            "(G x0)",
            "(set! W (cons (weak-cons x0 0) W))",
            "(define x1 (cons 1 'payload))",
            "(G x1)",
            "(set! W (cons (weak-cons x1 1) W))",
            "(define x2 (cons 2 'payload))",
            "(G x2)",
            "(set! W (cons (weak-cons x2 2) W))",
            "(set! x0 #f)",
            "(collect 2)",
            "(let lp ((v (G))) (when v (display v) (display \" \") (lp (G))))",
            "(for-each (lambda (w) (display (car w)) (display \" \")) W)",
            "(collect 4)",
            "(let lp ((v (G))) (when v (display v) (display \" \") (lp (G))))",
            "(for-each (lambda (w) (display (car w)) (display \" \")) W)",
        ],
    ),
    (
        "generated_guardians_2",
        &[
            "(define G (make-guardian))",
            "(define W '())",
            "(define x0 (cons 0 'payload))",
            "(G x0)",
            "(set! W (cons (weak-cons x0 0) W))",
            "(define x1 (cons 1 'payload))",
            "(G x1)",
            "(set! W (cons (weak-cons x1 1) W))",
            "(define x2 (cons 2 'payload))",
            "(G x2)",
            "(set! W (cons (weak-cons x2 2) W))",
            "(define x3 (cons 3 'payload))",
            "(G x3)",
            "(set! W (cons (weak-cons x3 3) W))",
            "(set! x0 #f)",
            "(set! x1 #f)",
            "(set! x2 #f)",
            "(set! x3 #f)",
            "(collect 4)",
            "(let lp ((v (G))) (when v (display v) (display \" \") (lp (G))))",
            "(for-each (lambda (w) (display (car w)) (display \" \")) W)",
            "(collect 4)",
            "(let lp ((v (G))) (when v (display v) (display \" \") (lp (G))))",
            "(for-each (lambda (w) (display (car w)) (display \" \")) W)",
            "(collect 3)",
            "(let lp ((v (G))) (when v (display v) (display \" \") (lp (G))))",
            "(for-each (lambda (w) (display (car w)) (display \" \")) W)",
        ],
    ),
    (
        "generated_guardians_3",
        &[
            "(define G (make-guardian))",
            "(define W '())",
            "(define x0 (cons 0 'payload))",
            "(G x0)",
            "(set! W (cons (weak-cons x0 0) W))",
            "(set! x0 #f)",
            "(collect 3)",
            "(let lp ((v (G))) (when v (display v) (display \" \") (lp (G))))",
            "(for-each (lambda (w) (display (car w)) (display \" \")) W)",
        ],
    ),
];

/// Recorded counters per program: `(name, default heap, 8 KiB trigger)`.
/// Each array is `[collections, pairs_allocated, objects_allocated,
/// words_allocated, guardian_registrations, guardian_polls,
/// total_words_copied, total_guardian_entries_visited,
/// total_weak_pairs_scanned]`.
#[rustfmt::skip]
const GOLDEN: &[(&str, [u64; 9], [u64; 9])] = &[
    ("transcript_basic", [1, 322, 697, 2575, 1, 1, 1941, 1, 0], [2, 322, 697, 2575, 1, 1, 4012, 1, 0]),
    ("transcript_double_registration", [1, 325, 697, 2581, 2, 2, 1941, 2, 0], [2, 325, 697, 2581, 2, 2, 4012, 2, 0]),
    ("transcript_two_guardians", [1, 330, 701, 2601, 2, 2, 1955, 2, 0], [2, 330, 701, 2601, 2, 2, 4026, 2, 0]),
    ("transcript_guardian_in_guardian", [1, 333, 701, 2607, 2, 2, 1955, 2, 0], [2, 333, 701, 2607, 2, 2, 4026, 2, 0]),
    ("guarded_ports_library", [2, 417, 724, 2931, 2, 2, 3939, 2, 0], [3, 417, 724, 2931, 2, 2, 6010, 2, 0]),
    ("figure_1_guarded_hash_table", [1, 519, 773, 3268, 0, 0, 2013, 0, 3], [2, 519, 773, 3268, 0, 0, 4084, 0, 3]),
    ("transport_guardian_program", [2, 381, 721, 2787, 2, 2, 3918, 2, 2], [3, 381, 721, 2787, 2, 2, 4113, 2, 2]),
    ("agent_registration", [1, 319, 697, 2569, 1, 1, 1939, 1, 0], [2, 319, 697, 2569, 1, 1, 4010, 1, 0]),
    ("cleanup_actions_may_allocate_and_raise", [2, 377, 713, 2828, 2, 2, 4086, 2, 0], [3, 377, 713, 2828, 2, 2, 6157, 2, 0]),
    ("guarded_table_under_churn", [5, 1127, 2720, 12685, 0, 0, 8000, 0, 452], [14, 1127, 2720, 12685, 0, 0, 8591, 0, 515]),
    ("tak", [0, 334, 21933, 130021, 0, 0, 0, 0, 0], [125, 334, 21933, 130021, 0, 0, 13012, 0, 0]),
    ("fibonacci", [0, 316, 2669, 10455, 0, 0, 0, 0, 0], [8, 316, 2669, 10455, 0, 0, 4324, 0, 0]),
    ("ackermann_small", [0, 335, 740, 2821, 0, 0, 0, 0, 0], [1, 335, 740, 2821, 0, 0, 2071, 0, 0]),
    ("merge_sort", [0, 517, 807, 3422, 0, 0, 0, 0, 0], [1, 517, 807, 3422, 0, 0, 2071, 0, 0]),
    ("quicksort_with_filter", [0, 462, 898, 3766, 0, 0, 0, 0, 0], [2, 462, 898, 3766, 0, 0, 2256, 0, 0]),
    ("church_encoding", [0, 377, 766, 2957, 0, 0, 0, 0, 0], [1, 377, 766, 2957, 0, 0, 2071, 0, 0]),
    ("association_list_interpreter", [0, 444, 730, 2938, 0, 0, 0, 0, 0], [1, 444, 730, 2938, 0, 0, 2071, 0, 0]),
    ("string_building_churn", [0, 322, 908, 6412, 0, 0, 0, 0, 0], [4, 322, 908, 6412, 0, 0, 4393, 0, 0]),
    ("higher_order_pipeline", [0, 349, 723, 2727, 0, 0, 0, 0, 0], [1, 349, 723, 2727, 0, 0, 2071, 0, 0]),
    ("guardians_inside_a_recursive_workload", [1, 645, 1308, 5658, 300, 300, 2595, 300, 0], [4, 645, 1308, 5658, 300, 300, 5357, 300, 0]),
    ("collect_request_handler", [0, 362, 713, 2707, 0, 0, 0, 0, 0], [1, 362, 713, 2707, 0, 0, 2071, 0, 0]),
    ("guardian_weak_matrix", [2, 535, 747, 3157, 2, 0, 4023, 4, 2], [3, 535, 747, 3157, 2, 0, 6094, 4, 2]),
    ("quasiquote_and_records", [1, 1336, 1360, 7286, 0, 0, 2401, 0, 0], [6, 1336, 1360, 7286, 0, 0, 6207, 0, 0]),
    ("generated_0", [0, 578, 740, 3226, 0, 0, 0, 0, 0], [1, 578, 740, 3226, 0, 0, 2071, 0, 0]),
    ("generated_1", [0, 442, 731, 2927, 0, 0, 0, 0, 0], [1, 442, 731, 2927, 0, 0, 2071, 0, 0]),
    ("generated_2", [0, 403, 721, 2813, 0, 0, 0, 0, 0], [1, 403, 721, 2813, 0, 0, 2071, 0, 0]),
    ("generated_3", [0, 507, 720, 3007, 0, 0, 0, 0, 0], [1, 507, 720, 3007, 0, 0, 2071, 0, 0]),
    ("generated_4", [0, 383, 710, 2736, 0, 0, 0, 0, 0], [1, 383, 710, 2736, 0, 0, 2071, 0, 0]),
    ("generated_5", [0, 386, 713, 2757, 0, 0, 0, 0, 0], [1, 386, 713, 2757, 0, 0, 2071, 0, 0]),
    ("generated_6", [0, 544, 719, 3083, 0, 0, 0, 0, 0], [1, 544, 719, 3083, 0, 0, 2071, 0, 0]),
    ("generated_7", [0, 397, 711, 2766, 0, 0, 0, 0, 0], [1, 397, 711, 2766, 0, 0, 2071, 0, 0]),
    ("generated_8", [0, 477, 733, 2999, 0, 0, 0, 0, 0], [1, 477, 733, 2999, 0, 0, 2071, 0, 0]),
    ("generated_9", [0, 438, 718, 2866, 0, 0, 0, 0, 0], [1, 438, 718, 2866, 0, 0, 2071, 0, 0]),
    ("generated_guardians_0", [2, 405, 724, 2823, 1, 0, 3928, 2, 2], [3, 405, 724, 2823, 1, 0, 4118, 2, 2]),
    ("generated_guardians_1", [1, 459, 735, 2965, 3, 1, 1983, 3, 3], [2, 459, 735, 2965, 3, 1, 4054, 3, 3]),
    ("generated_guardians_2", [1, 536, 755, 3188, 4, 4, 2014, 4, 4], [2, 536, 755, 3188, 4, 4, 4085, 4, 4]),
    ("generated_guardians_3", [1, 369, 716, 2725, 1, 1, 1957, 1, 1], [2, 369, 716, 2725, 1, 1, 4028, 1, 1]),
];

/// The deterministic (non-timing) heap counters, in `GOLDEN` order.
fn counters(it: &Interp) -> [u64; 9] {
    let s = it.heap().stats();
    [
        s.collections,
        s.pairs_allocated,
        s.objects_allocated,
        s.words_allocated,
        s.guardian_registrations,
        s.guardian_polls,
        s.total_words_copied,
        s.total_guardian_entries_visited,
        s.total_weak_pairs_scanned,
    ]
}

/// Runs `forms` on a fresh VM interpreter; errors are part of the
/// program, so results are discarded and only the heap is inspected.
fn run_vm(gc: GcConfig, forms: &[&str]) -> [u64; 9] {
    let mut it = Interp::with_interp_config(InterpConfig {
        gc,
        ..InterpConfig::vm()
    });
    for f in forms {
        let _ = it.eval_str(f);
    }
    it.heap().verify().unwrap();
    counters(&it)
}

#[test]
fn vm_reproduces_recorded_counters() {
    let corpus: Vec<&(&str, &[&str])> = HAND.iter().chain(GENERATED).collect();
    assert_eq!(corpus.len(), GOLDEN.len(), "one golden row per program");
    let small = GcConfig {
        trigger_bytes: 8192,
        ..GcConfig::new()
    };
    let mut mismatches = Vec::new();
    for ((name, forms), (golden_name, default, stressed)) in corpus.into_iter().zip(GOLDEN) {
        assert_eq!(name, golden_name, "corpus and golden table out of order");
        for (label, gc, want) in [
            ("default", GcConfig::default(), default),
            ("8 KiB trigger", small.clone(), stressed),
        ] {
            let got = run_vm(gc, forms);
            if got != *want {
                mismatches.push(format!("{name} ({label}): recorded {want:?}, VM {got:?}"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "VM counters moved:\n{}",
        mismatches.join("\n")
    );
}
