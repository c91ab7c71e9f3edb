"""Recursive-descent parser for prose storyboards.

Surface grammar (canonical spellings; keywords are case-insensitive):

    storyboard  = shot , { ("Cut to" | "Dissolve to") , shot } ;
    shot        = composition , { "," , event } , "." ;
    composition = flat , { "," , flat } ;            (* foreground first *)
    flat        = size , "on" , subject , { "and" , subject } ;
    subject     = NAME , [ profile ] , [ screen ] ;
    size        = "BCU" | "CU" | "MCU" | "MS" | "MLS" | "LS" | "VLS"
                | long forms ("medium long shot", "big close-up", ...) ;
    profile     = "front" | "back" | "left" | "right" | "3/4 left"
                | "3/4 right" | "3/4 back left" | "3/4 back right" ;
    screen      = "screen" , ("far left"|"left"|"center"|"right"|"far right")
                | "at" , FRACTION ;
    event       = "lock"
                | ("pan"|"dolly"|"crane") , ("with" , subject | "to" , composition)
                | "continue to" , composition
                | actor-event ;
    actor-event = NAME , ( "speaks" | "reacts" , [ "to" , NAME ]
                | "uses" , NAME | "touches" , NAME | "crosses" , NAME
                | "enters from" , ("left"|"right") , "to" , composition
                | "exits" , ("left"|"right")
                | "moves to" , composition ) ;

A comma either continues the composition (when a size keyword follows) or
starts an event, so one token of lookahead suffices; the cursor reads it
from a list of token kinds.  Numeric checks ("3/4" as a profile, an "at"
position inside (0, 1)) read the fraction's reduced ``numerator`` and
``denominator``, so "6/8 left" is a three-quarter profile.  Errors recover
by skipping to the next period, which keeps one bad shot to one
diagnostic.  On any error the parse yields no tree, only diagnostics.
"""
from __future__ import annotations

from . import ast
from .ast import (
    CAMERA_TO,
    CAMERA_WITH,
    Composition,
    ContinueTo,
    Cross,
    Enter,
    Exit,
    FlatComposition,
    Lock,
    Move,
    Profile,
    React,
    ScreenAnchor,
    ScreenFraction,
    ShotTransition,
    Side,
    Speak,
    Storyboard,
    SubjectSpec,
    Touch,
    Use,
)
from .diagnostics import (
    Diagnostic,
    E_EMPTY,
    E_NUMBER_RANGE,
    E_SYNTAX,
    Span,
    error,
    has_errors,
    in_source_order,
)
from .lexer import TokenKind, lex

# Every kind as a module name, in TokenKind's order.  On Python 3.10 and 3.11
# a read of a member off its Enum class (``TokenKind.COMMA``) goes through
# ``EnumMeta.__getattr__`` and is several times slower than reading a module
# name, and the grammar tests several kinds per token.
(SIZE, FRACTION, IDENT, COMMA, PERIOD, ON, AND, TO, WITH, SCREEN, AT, LOCK, PAN, DOLLY, CRANE,
 CONTINUE_TO, CUT_TO, DISSOLVE_TO, FRONT, BACK, LEFT, RIGHT, CENTER, FAR, FROM, SPEAKS, REACTS,
 USES, TOUCHES, CROSSES, ENTERS, EXITS, MOVES, RESERVED) = TokenKind

_PROFILE_BY_KIND = {kind: Profile(kind.value) for kind in (FRONT, BACK, LEFT, RIGHT)}
_SIDE_BY_KIND = {kind: Side(kind.value) for kind in (LEFT, RIGHT)}


class _Failure(Exception):
    def __init__(self, diagnostic: Diagnostic) -> None:
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


class _Parser:
    """A cursor over ``lex``'s tokens: plain tuples of ``Token``'s fields in
    its order, read by position, as a ``Token`` each would cost more to build."""

    def __init__(self, tokens: list[tuple], source_bytes: int) -> None:
        self.tokens = tokens
        self.kinds = [t[0] for t in tokens] + [None]  # None marks the end of input
        self.pos = 0
        self.end = source_bytes

    # --- cursor helpers --------------------------------------------

    def take(self, kind: TokenKind) -> tuple | None:
        if self.kinds[self.pos] is kind:
            self.pos += 1
            return self.tokens[self.pos - 1]
        return None

    def expect(self, kind: TokenKind, what: str) -> tuple:
        i = self.pos
        if self.kinds[i] is kind:
            self.pos = i + 1
            return self.tokens[i]
        raise _Failure(self.fail(what))

    def fail(self, what: str) -> Diagnostic:
        if self.pos >= len(self.tokens):
            span = Span(max(0, self.end - 1), self.end) if self.end else Span(0, 0)
            return error(E_SYNTAX, span, f"expected {what}, found end of input")
        _, lexeme, start, end, _ = self.tokens[self.pos]
        return error(E_SYNTAX, Span(start, end), f"expected {what}, found {lexeme!r}")

    def skip_past_period(self) -> None:
        while self.pos < len(self.tokens):
            self.pos += 1
            if self.kinds[self.pos - 1] is PERIOD:
                return

    # --- grammar ----------------------------------------------------

    def storyboard(self, diagnostics: list[Diagnostic]) -> Storyboard | None:
        shots: list[ast.Shot] = []
        joins: list[ShotTransition] = []
        first = self.shot(diagnostics)
        if first is not None:
            shots.append(first)
        while self.pos < len(self.tokens):
            if self.take(CUT_TO):
                joins.append(ShotTransition.CUT)
            elif self.take(DISSOLVE_TO):
                joins.append(ShotTransition.DISSOLVE)
            else:
                diagnostics.append(self.fail("'Cut to', 'Dissolve to', or end of storyboard"))
                self.skip_past_period()
                continue
            nxt = self.shot(diagnostics)
            if nxt is not None:
                shots.append(nxt)
        if has_errors(diagnostics) or not shots:
            return None
        return Storyboard(tuple(shots), tuple(joins))

    def shot(self, diagnostics: list[Diagnostic]) -> ast.Shot | None:
        first = self.pos
        try:
            comp = self.composition()
            events: list[ast.ScreenEvent] = []
            while self.kinds[self.pos] is COMMA:
                self.pos += 1
                events.append(self.event())
            period = self.expect(PERIOD, "',' or '.'")
            return ast.Shot(comp, tuple(events), span=Span(self.tokens[first][2], period[3]))
        except _Failure as failure:
            diagnostics.append(failure.diagnostic)
            self.skip_past_period()
            return None

    def composition(self) -> Composition:
        flats = [self.flat()]
        while self.kinds[self.pos] is COMMA and self.kinds[self.pos + 1] is SIZE:
            self.pos += 1
            flats.append(self.flat())
        return Composition(tuple(flats))

    def flat(self) -> FlatComposition:
        size_tok = self.expect(SIZE, "a shot size (MS, CU, ...)")
        self.expect(ON, "'on'")
        subjects = [self.subject()]
        while self.kinds[self.pos] is AND:
            self.pos += 1
            subjects.append(self.subject())
        return FlatComposition(size_tok[4], tuple(subjects),
                               span=Span(size_tok[2], self.tokens[self.pos - 1][3]))

    def subject(self) -> SubjectSpec:
        name = self.expect(IDENT, "a subject name")
        return SubjectSpec(name[4], self.maybe_profile(), self.maybe_screen())

    def maybe_profile(self) -> Profile | None:
        kinds, i = self.kinds, self.pos
        profile = _PROFILE_BY_KIND.get(kinds[i])
        if profile is not None:
            self.pos = i + 1
            return profile
        if kinds[i] is FRACTION and kinds[i + 1] in (LEFT, RIGHT, BACK):
            value = self.tokens[i][4]
            if value.numerator != 3 or value.denominator != 4:
                return None
            self.pos = i + 1
            if self.take(BACK):
                if self.take(LEFT):
                    return Profile.THREE_QUARTER_BACK_LEFT
                self.expect(RIGHT, "'left' or 'right' after '3/4 back'")
                return Profile.THREE_QUARTER_BACK_RIGHT
            if self.take(LEFT):
                return Profile.THREE_QUARTER_LEFT
            self.pos += 1  # the guard above leaves only 'right'
            return Profile.THREE_QUARTER_RIGHT
        return None

    def maybe_screen(self) -> ast.ScreenPosition | None:
        kind = self.kinds[self.pos]
        if kind is SCREEN:
            self.pos += 1
            if self.take(FAR):
                if self.take(LEFT):
                    return ScreenAnchor.FAR_LEFT
                self.expect(RIGHT, "'left' or 'right' after 'screen far'")
                return ScreenAnchor.FAR_RIGHT
            if self.take(LEFT):
                return ScreenAnchor.LEFT
            if self.take(CENTER):
                return ScreenAnchor.CENTER
            self.expect(RIGHT, "a screen position after 'screen'")
            return ScreenAnchor.RIGHT
        if kind is AT:
            self.pos += 1
            _, lexeme, start, end, value = self.expect(FRACTION, "a fraction after 'at'")
            if not 0 < value.numerator < value.denominator:
                raise _Failure(error(E_NUMBER_RANGE, Span(start, end),
                                     f"screen position {lexeme} is not inside (0, 1)"))
            return ScreenFraction(value)
        return None

    def event(self) -> ast.ScreenEvent:
        if self.pos >= len(self.tokens):
            raise _Failure(self.fail("an event"))
        t = self.tokens[self.pos]
        kind = t[0]
        self.pos += 1
        if kind is LOCK:
            return Lock(span=Span(t[2], t[3]))
        if kind is PAN or kind is DOLLY or kind is CRANE:
            verb = t[1].lower()
            if self.take(WITH):
                return CAMERA_WITH[verb](self.subject(), span=self._span_from(t))
            self.expect(TO, "'with' or 'to'")
            return CAMERA_TO[verb](self.composition(), span=self._span_from(t))
        if kind is CONTINUE_TO:
            target = self.composition()
            return ContinueTo(target, span=self._span_from(t))
        if kind is IDENT:
            return self.actor_event(t)
        self.pos -= 1
        raise _Failure(self.fail("an event (lock, pan, dolly, crane, continue to, or a subject name)"))

    def actor_event(self, actor: tuple) -> ast.ScreenEvent:
        verb = self.kinds[self.pos]
        self.pos += 1
        if verb is SPEAKS:
            return Speak(actor[4], span=self._span_from(actor))
        if verb is REACTS:
            target = None
            if self.take(TO):
                target = self.expect(IDENT, "a subject name after 'reacts to'")[4]
            return React(actor[4], target, span=self._span_from(actor))
        if verb is USES:
            prop = self.expect(IDENT, "a subject name after 'uses'")
            return Use(actor[4], prop[4], span=self._span_from(actor))
        if verb is TOUCHES:
            prop = self.expect(IDENT, "a subject name after 'touches'")
            return Touch(actor[4], prop[4], span=self._span_from(actor))
        if verb is CROSSES:
            other = self.expect(IDENT, "a subject name after 'crosses'")
            return Cross(actor[4], other[4], span=self._span_from(actor))
        if verb is ENTERS:
            self.expect(FROM, "'from' after 'enters'")
            side = self._side()
            self.expect(TO, "'to' after the entrance side")
            target = self.composition()
            return Enter(actor[4], side, target, span=self._span_from(actor))
        if verb is EXITS:
            side = self._side()
            return Exit(actor[4], side, span=self._span_from(actor))
        if verb is MOVES:
            self.expect(TO, "'to' after 'moves'")
            target = self.composition()
            return Move(actor[4], target, span=self._span_from(actor))
        self.pos -= 1
        raise _Failure(self.fail("an action verb (speaks, reacts, uses, touches, crosses, enters, exits, moves)"))

    def _side(self) -> Side:
        side = _SIDE_BY_KIND.get(self.kinds[self.pos])
        if side is None:
            raise _Failure(self.fail("'left' or 'right'"))
        self.pos += 1
        return side

    def _span_from(self, first: tuple) -> Span:
        return Span(first[2], self.tokens[self.pos - 1][3])


def parse_storyboard(source: str) -> tuple[Storyboard | None, list[Diagnostic]]:
    """Parse a whole storyboard; returns (tree or None, diagnostics)."""
    tokens, diagnostics, nbytes = lex(source)
    if not tokens:
        diagnostics.append(error(E_EMPTY, Span(0, nbytes), "the storyboard is empty"))
        return None, in_source_order(diagnostics)
    parser = _Parser(tokens, nbytes)
    return parser.storyboard(diagnostics), in_source_order(diagnostics)
