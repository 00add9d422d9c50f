% A cut as the first goal of a negation is local to its probe.
m(1).
m(2).
t(X) :- m(X), \+ (!, fail).
