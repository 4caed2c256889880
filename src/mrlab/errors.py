"""Exception types shared across the package."""


class MRLabError(Exception):
    """Base class for all mrlab errors."""


class EmptyInputError(MRLabError):
    """An operation received an empty dataset."""


class ParameterError(MRLabError, ValueError):
    """An argument is outside its documented domain."""


class RowParseError(MRLabError, ValueError):
    """A malformed input row. ``row`` is 1-based: the file line for
    readers (the header is line 1), the data row for library code."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row
        self.message = message


class JobExecutionError(MRLabError):
    """A mapper, combiner or reducer raised; pinpoints the unit of work.

    ``split_id``/``record_index`` locate map failures, ``key`` locates
    combine/reduce failures, ``iteration`` is set by iterative drivers.
    """

    def __init__(self, stage, message, *, split_id=None, record_index=None,
                 key=None, iteration=None):
        super().__init__(message)
        self.stage = stage
        self.split_id = split_id
        self.record_index = record_index
        self.key = key
        self.iteration = iteration

    def __str__(self):
        where = [f"stage={self.stage}"]
        if self.iteration is not None:
            where.append(f"iteration={self.iteration}")
        if self.split_id is not None:
            where.append(f"split={self.split_id}")
        if self.record_index is not None:
            where.append(f"record={self.record_index}")
        if self.key is not None:
            where.append(f"key={self.key!r}")
        return f"{super().__str__()} [{', '.join(where)}]"


class SingularMatrixError(MRLabError):
    """Normal-equations matrix is singular or near singular.

    ``pivot`` is the index of the factorization pivot that collapsed.
    """

    def __init__(self, pivot: int, message: str | None = None):
        super().__init__(message or f"matrix is singular at pivot {pivot}")
        self.pivot = pivot


class DivergenceError(MRLabError):
    """An iterative fit produced non-finite values: logistic coefficients
    or the k-means objective."""

    def __init__(self, iteration: int, message: str | None = None):
        super().__init__(message or f"diverged at iteration {iteration}")
        self.iteration = iteration
